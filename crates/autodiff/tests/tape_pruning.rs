//! Backward-pass pruning: an op whose inputs are all constants is itself
//! constant, and `backward` computes deltas only for non-constant inputs.
//! Pruning must never change a variable gradient's bits, and it must
//! actually skip the products it claims to (counted through the
//! `kernel/*` timers).
//!
//! The trace sink is process-global, so every test in this binary holds
//! one lock.

use bbgnn_autodiff::{Tape, TensorId};
use bbgnn_linalg::{CsrMatrix, DenseMatrix, ExecContext};
use std::collections::BTreeMap;
use std::io::Write;
use std::rc::Rc;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

static LOCK: Mutex<()> = Mutex::new(());

fn locked() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A graph touching every multi-input op with constant and variable
/// operands mixed. With `consts_as_vars` the constants are registered as
/// `var`s instead; the returned ids are the true variables either way.
fn mixed_graph(t: &mut Tape, consts_as_vars: bool) -> (TensorId, Vec<TensorId>) {
    let leaf = |t: &mut Tape, m: DenseMatrix| {
        if consts_as_vars {
            t.var(m)
        } else {
            t.constant(m)
        }
    };
    let x = leaf(t, DenseMatrix::uniform(6, 5, 1.0, 1));
    let s_rows = leaf(t, DenseMatrix::uniform(6, 1, 1.0, 2));
    let shift = leaf(t, DenseMatrix::uniform(6, 4, 1.0, 3));
    let col = leaf(t, DenseMatrix::uniform(6, 1, 1.0, 4));
    let att_pattern = Rc::new(CsrMatrix::from_triplets(
        6,
        3,
        [
            (0, 0, 1.0),
            (0, 1, 1.0),
            (0, 2, 1.0),
            (1, 1, 1.0),
            (3, 0, 1.0),
            (3, 2, 1.0),
            (5, 2, 1.0),
        ],
    ));
    let proj = leaf(t, DenseMatrix::uniform(3, 3, 1.0, 5));
    let w0 = t.var(DenseMatrix::uniform(5, 4, 1.0, 6));
    let s_cols = t.var(DenseMatrix::uniform(4, 1, 1.0, 7));
    let w_cat = t.var(DenseMatrix::uniform(8, 3, 1.0, 8));
    let d = t.var(DenseMatrix::uniform(3, 1, 1.0, 10));
    let adj = Rc::new(CsrMatrix::from_triplets(
        6,
        6,
        [
            (0, 0, 1.0),
            (0, 1, 0.5),
            (1, 0, 0.5),
            (2, 3, 1.0),
            (3, 2, 1.0),
            (4, 5, 0.25),
            (5, 4, 0.25),
        ],
    ));

    let xw = t.matmul(x, w0); // constant × variable
    let h = t.spmm(adj, xw);
    let h = t.scale_rows(h, s_rows); // variable × constant
    let h = t.scale_cols(h, s_cols); // variable × variable
    let h = t.add(shift, h);
    let h = t.sub(h, shift);
    let h = t.hadamard(shift, h);
    let h = t.leaky_relu(h, 0.2);
    let cat = t.concat_cols(&[h, shift]);
    let logits = t.matmul(cat, w_cat);
    let att = t.edge_add_outer(col, d, Rc::clone(&att_pattern)); // constant × variable
    let att = t.edge_softmax_rows(att, Rc::clone(&att_pattern));
    let att = t.edge_spmm(att, &att_pattern, proj); // variable × constant
    let logits = t.add(logits, att);
    let logits = t.matmul(logits, proj); // variable × constant
    let loss = t.cross_entropy(
        logits,
        Rc::new(vec![0, 1, 2, 0, 1, 2]),
        Rc::new(vec![0, 2, 3, 5]),
    );
    (loss, vec![w0, s_cols, w_cat, d])
}

fn bits(m: &DenseMatrix) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn variable_gradients_are_bitwise_those_of_the_all_var_graph() {
    let _g = locked();
    let grads = |consts_as_vars: bool| -> Vec<Vec<u64>> {
        let mut t = Tape::with_context(Rc::new(ExecContext::new(1)));
        let (loss, vars) = mixed_graph(&mut t, consts_as_vars);
        t.backward(loss);
        vars.iter()
            .map(|&v| bits(t.grad(v).expect("variable gradient")))
            .collect()
    };
    let pruned = grads(false);
    let full = grads(true);
    assert_eq!(pruned.len(), 4);
    for (i, (p, f)) in pruned.iter().zip(&full).enumerate() {
        assert_eq!(p, f, "variable {i}: pruning changed the gradient bits");
    }
}

/// A cloneable in-memory trace sink.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Dense products issued by the backward of `matmul(a, b)`, per kernel,
/// with `a` and/or `b` registered as a variable.
fn backward_products(a_var: bool, b_var: bool) -> BTreeMap<String, u64> {
    let mut t = Tape::with_context(Rc::new(ExecContext::new(1)));
    let leaf = |t: &mut Tape, var: bool, m: DenseMatrix| if var { t.var(m) } else { t.constant(m) };
    let a = leaf(&mut t, a_var, DenseMatrix::uniform(9, 6, 1.0, 1));
    let b = leaf(&mut t, b_var, DenseMatrix::uniform(6, 7, 1.0, 2));
    let c = t.matmul(a, b);
    let s = t.sum_all(c);
    // Only the backward is traced; one thread keeps every timer on this
    // thread until the shutdown drains it.
    let buf = SharedBuf::default();
    bbgnn_obs::init_to_writer(Box::new(buf.clone()));
    t.backward(s);
    bbgnn_obs::shutdown();
    let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
    let mut calls = BTreeMap::new();
    for line in text.lines() {
        let field = |key: &str| {
            let start = line.find(key)? + key.len();
            let rest = &line[start..];
            Some(rest[..rest.find([',', '"', '}'])?].to_string())
        };
        if let (Some(name), Some(n)) = (field("\"name\":\""), field("\"calls\":")) {
            if name.starts_with("kernel/matmul") {
                *calls.entry(name).or_insert(0) += n.parse::<u64>().unwrap();
            }
        }
    }
    calls
}

#[test]
fn backward_of_a_constant_times_a_var_issues_exactly_one_product() {
    let _g = locked();
    let one = |k: &str| BTreeMap::from([(k.to_string(), 1u64)]);
    assert_eq!(
        backward_products(false, true),
        one("kernel/matmul_tn"),
        "matmul(constant, var): only the weight gradient aᵀ·g"
    );
    assert_eq!(
        backward_products(true, false),
        one("kernel/matmul_nt"),
        "matmul(var, constant): only the input gradient g·bᵀ"
    );
    let both = backward_products(true, true);
    assert_eq!(
        both,
        BTreeMap::from([
            ("kernel/matmul_nt".to_string(), 1),
            ("kernel/matmul_tn".to_string(), 1)
        ]),
        "two variables need both products"
    );
}

#[test]
fn ops_on_constants_only_get_no_gradient() {
    let _g = locked();
    let mut t = Tape::with_context(Rc::new(ExecContext::new(1)));
    let c1 = t.constant(DenseMatrix::uniform(4, 3, 1.0, 1));
    let c2 = t.constant(DenseMatrix::uniform(3, 2, 1.0, 2));
    let v = t.var(DenseMatrix::uniform(4, 2, 1.0, 3));
    let m = t.matmul(c1, c2);
    let r = t.relu(m);
    let mixed = t.add(r, v);
    let loss = t.sum_all(mixed);
    t.backward(loss);
    for (name, id) in [("c1", c1), ("c2", c2), ("matmul", m), ("relu", r)] {
        assert!(t.grad(id).is_none(), "{name} is constant");
    }
    assert!(t.grad(mixed).is_some());
    assert!(t.grad(v).is_some());

    // A constant output has nothing to differentiate.
    let const_loss = t.sum_all(m);
    t.backward(const_loss);
    for id in [c1, c2, m, v, const_loss] {
        assert!(t.grad(id).is_none());
    }
}

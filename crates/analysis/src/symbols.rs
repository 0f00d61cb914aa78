//! The workspace **symbol graph**: every fn and struct the item parser
//! ([`crate::parse`]) recovers, indexed for cross-file queries, plus the
//! approximate call-edge resolution the flow rules ([`crate::flow`]) walk.
//!
//! Resolution is **by name, narrowed by qualifier** — there is no type
//! inference. `helper(x)` resolves to every workspace fn named `helper`;
//! `kernels::matmul_into(..)` narrows to fns whose file stem, crate, or
//! impl type matches `kernels`; `m.fit(..)` prefers impl methods. When a
//! qualifier matches nothing (an external crate, a type alias), the
//! narrowing is dropped and *all* same-name candidates stand — the graph
//! over-approximates rather than silently losing edges, which is the
//! conservative direction for `check_site` (a spurious edge can be
//! waived; a missing edge hides a real unsupervised loop). The documented
//! approximations live in DESIGN.md §9.

use crate::lexer::Lexed;
use crate::parse::{parse_file, Call, FnItem, StructItem};
use crate::rules::{classify, FileInfo};
use std::collections::BTreeMap;

/// One analyzed file.
#[derive(Debug)]
pub struct FileModel {
    /// Workspace-relative, forward-slash path.
    pub rel: String,
    pub info: FileInfo,
}

/// One fn in the graph: the parsed item plus derived flags.
#[derive(Debug)]
pub struct FnSym {
    /// Index into [`Model::files`].
    pub file: usize,
    pub item: FnItem,
    /// True if the body makes a supervision-check call (§11).
    pub has_check: bool,
}

/// One struct in the graph.
#[derive(Debug)]
pub struct StructSym {
    /// Index into [`Model::files`].
    pub file: usize,
    pub item: StructItem,
}

/// The workspace symbol graph.
#[derive(Debug, Default)]
pub struct Model {
    pub files: Vec<FileModel>,
    pub fns: Vec<FnSym>,
    pub structs: Vec<StructSym>,
    by_name: BTreeMap<String, Vec<usize>>,
}

/// True if `c` is a supervision check per §11: `stop_reason`, the attack
/// crate's `should_stop` wrapper, `cancel_requested`, or
/// `supervise::check` / `bbgnn_supervise::check`.
pub fn is_check_call(c: &Call) -> bool {
    if c.is_macro {
        return false;
    }
    match c.name.as_str() {
        "stop_reason" | "should_stop" | "cancel_requested" => true,
        "check" => matches!(
            c.qualifier.as_deref(),
            Some("supervise") | Some("bbgnn_supervise")
        ),
        _ => false,
    }
}

fn file_stem(rel: &str) -> &str {
    rel.rsplit('/')
        .next()
        .unwrap_or(rel)
        .trim_end_matches(".rs")
}

impl Model {
    /// Builds the graph from lexed files. `files` pairs each
    /// workspace-relative path with its token stream; the returned model's
    /// file indices align with the slice.
    pub fn build(files: &[(String, Lexed)]) -> Model {
        let mut m = Model::default();
        for (rel, lx) in files {
            let file_idx = m.files.len();
            let parsed = parse_file(lx);
            m.files.push(FileModel {
                rel: rel.clone(),
                info: classify(rel),
            });
            for item in parsed.fns {
                let has_check = item.calls.iter().any(is_check_call);
                let idx = m.fns.len();
                m.by_name.entry(item.name.clone()).or_default().push(idx);
                m.fns.push(FnSym {
                    file: file_idx,
                    item,
                    has_check,
                });
            }
            for item in parsed.structs {
                m.structs.push(StructSym {
                    file: file_idx,
                    item,
                });
            }
        }
        m
    }

    /// All fns with this bare name, in build order.
    pub fn fns_named(&self, name: &str) -> &[usize] {
        self.by_name.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Resolves one call from `caller` to candidate fn indices — the
    /// approximate call-edge set. Empty when the name is unknown to the
    /// workspace (std, vendored, or macro-generated code).
    pub fn resolve(&self, caller: usize, call: &Call) -> Vec<usize> {
        if call.is_macro {
            return Vec::new();
        }
        let caller_in_test = self.fns[caller].item.in_test;
        let mut cands: Vec<usize> = self
            .fns_named(&call.name)
            .iter()
            .copied()
            // Shipped code never calls #[cfg(test)] fns.
            .filter(|&i| caller_in_test || !self.fns[i].item.in_test)
            .collect();
        if cands.is_empty() {
            return cands;
        }
        if let Some(q) = &call.qualifier {
            // `Self::f()` means the caller's own impl type.
            let q: &str = if q == "Self" {
                match self.fns[caller].item.impl_type.as_deref() {
                    Some(t) => t,
                    None => q,
                }
            } else {
                q
            };
            let q_crate = q.strip_prefix("bbgnn_").unwrap_or(q);
            let narrowed: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&i| {
                    let f = &self.fns[i];
                    let file = &self.files[f.file];
                    f.item.impl_type.as_deref() == Some(q)
                        || file_stem(&file.rel) == q
                        || file.info.krate.as_deref() == Some(q_crate)
                })
                .collect();
            if !narrowed.is_empty() {
                cands = narrowed;
            }
        } else if call.is_method {
            let methods: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&i| self.fns[i].item.impl_type.is_some())
                .collect();
            if !methods.is_empty() {
                cands = methods;
            }
        }
        cands
    }

    /// Strict, **evidence-based** call-edge resolution, used by the
    /// `check_site` traversal. Where [`Model::resolve`] over-approximates
    /// (unresolvable qualifier → all same-name candidates), this variant
    /// demands positive evidence and otherwise returns no edge:
    ///
    /// * a qualified call binds only to fns its qualifier actually
    ///   narrows to (`mem::take` matches nothing in the workspace — no
    ///   edge, instead of every fn named `take`);
    /// * an unqualified method call binds only to impl fns whose self
    ///   type is *visible at the caller* — the caller's own impl type, a
    ///   signature type, or a type named in the body. `self.skip_ws()`
    ///   stays inside the impl; `v.get(i)` on a `Vec` does not leak to
    ///   some workspace type's `get`;
    /// * a bare call binds only to free fns (bare paths cannot invoke
    ///   methods).
    ///
    /// The trade-off is deliberate and documented (DESIGN.md §9): strict
    /// edges can *miss* a path (a method on a field whose type is never
    /// named locally), so `check_site` is not complete — but every edge
    /// it does walk is defensible, which keeps findings actionable
    /// instead of drowning real §11 holes in `.get()` noise.
    pub fn resolve_strict(&self, caller: usize, call: &Call) -> Vec<usize> {
        if call.is_macro {
            return Vec::new();
        }
        let cf = &self.fns[caller].item;
        let caller_in_test = cf.in_test;
        let caller_impl = cf.impl_type.clone();
        let cands = self
            .fns_named(&call.name)
            .iter()
            .copied()
            .filter(|&i| caller_in_test || !self.fns[i].item.in_test);
        if let Some(q) = &call.qualifier {
            let q: &str = if q == "Self" {
                caller_impl.as_deref().unwrap_or(q)
            } else {
                q
            };
            let q_crate = q.strip_prefix("bbgnn_").unwrap_or(q);
            return cands
                .filter(|&i| {
                    let f = &self.fns[i];
                    let file = &self.files[f.file];
                    f.item.impl_type.as_deref() == Some(q)
                        || file_stem(&file.rel) == q
                        || file.info.krate.as_deref() == Some(q_crate)
                })
                .collect();
        }
        if call.is_method {
            let cf = &self.fns[caller].item;
            return cands
                .filter(|&i| {
                    let Some(t) = self.fns[i].item.impl_type.as_deref() else {
                        return false;
                    };
                    caller_impl.as_deref() == Some(t)
                        || cf.sig_idents.iter().any(|s| s == t)
                        || cf.mentions(t)
                })
                .collect();
        }
        cands
            .filter(|&i| self.fns[i].item.impl_type.is_none())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn model(files: &[(&str, &str)]) -> Model {
        let files: Vec<(String, Lexed)> = files
            .iter()
            .map(|(rel, src)| (rel.to_string(), lex(src)))
            .collect();
        Model::build(&files)
    }

    #[test]
    fn name_resolution_narrows_by_qualifier_and_falls_back() {
        let m = model(&[
            (
                "crates/linalg/src/kernels.rs",
                "pub fn run(ws: &mut W) { inner(ws); }\npub fn inner(_: &mut W) {}",
            ),
            (
                "crates/attack/src/peega.rs",
                "pub fn inner(_: u32) {}\n\
                 pub fn go() { kernels::inner(1); inner(2); external::missing(); }",
            ),
        ]);
        let go = m.fns_named("go")[0];
        let calls = &m.fns[go].item.calls;
        // Qualified: narrowed to the kernels.rs candidate.
        let r0 = m.resolve(go, &calls[0]);
        assert_eq!(r0.len(), 1);
        assert_eq!(
            m.files[m.fns[r0[0]].file].rel,
            "crates/linalg/src/kernels.rs"
        );
        // Unqualified: both `inner`s stand (over-approximation).
        assert_eq!(m.resolve(go, &calls[1]).len(), 2);
        // Unknown name: no edge.
        assert!(m.resolve(go, &calls[2]).is_empty());
    }

    #[test]
    fn method_calls_prefer_impl_fns_and_self_resolves() {
        let m = model(&[(
            "crates/gnn/src/gcn.rs",
            "pub fn fit() {}\n\
             impl Gcn {\n\
               pub fn fit(&self) { Self::helper(); }\n\
               fn helper() {}\n\
               pub fn drive(&self, g: &Gcn) { g.fit(); }\n\
             }",
        )]);
        let drive = m.fns_named("drive")[0];
        let call = &m.fns[drive].item.calls[0];
        let r = m.resolve(drive, call);
        assert_eq!(r.len(), 1, "method call prefers the impl fn");
        assert_eq!(m.fns[r[0]].item.qual, "Gcn::fit");
        let fit = r[0];
        let helper = m.resolve(fit, &m.fns[fit].item.calls[0]);
        assert_eq!(m.fns[helper[0]].item.qual, "Gcn::helper");
    }

    #[test]
    fn check_calls_are_detected() {
        let m = model(&[(
            "crates/gnn/src/train.rs",
            "pub fn train_loop(h: &H) { for _ in 0..9 { if let Some(r) = h.stop_reason() { return; } } }\n\
             pub fn quiet() { step(); }",
        )]);
        assert!(m.fns[m.fns_named("train_loop")[0]].has_check);
        assert!(!m.fns[m.fns_named("quiet")[0]].has_check);
    }

    #[test]
    fn test_fns_are_invisible_to_shipped_callers() {
        let m = model(&[(
            "crates/attack/src/dice.rs",
            "#[cfg(test)]\nmod t { pub fn helper() {} }\n\
             pub fn shipped() { helper(); }",
        )]);
        let shipped = m.fns_named("shipped")[0];
        assert!(m.resolve(shipped, &m.fns[shipped].item.calls[0]).is_empty());
    }
}

//! The six campaign documents' fields, declared once.
//!
//! Each document kind — the `schema` tag of a sweep, chaos, soak, storm,
//! fleet or serve document — is one table of classes, each with its
//! paths. A path is dot-separated, and `*` stands for any object key or array
//! index. A field takes the [`Class`] of the longest declared path that
//! is the field itself or one of its ancestors, so a subtree inherits its
//! class and a longer path overrides it. A field that is neither declared
//! nor under a declared path nor on the way to one is undeclared, and
//! both readers of the tables refuse it:
//!
//! * [`diff_documents`](crate::diff_documents), the `bench diff` gate,
//!   compares each field by its class and reports an undeclared one as
//!   schema drift;
//! * [`deterministic_view`] keeps only the [`Class::Deterministic`]
//!   fields: what parallel, sequential and journal-resumed runs of one
//!   grid must agree on byte for byte.

use crate::diff::JsonValue;

/// How a document field may move between two runs of the same grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Class {
    /// Simulation payload, labels and the harness's accounting: compared
    /// exactly.
    Deterministic,
    /// A wall-clock duration: fails when it grows past
    /// [`CRASH_RATIO`](crate::diff::CRASH_RATIO), unless both sides lie
    /// under the noise floor given, in the field's own unit.
    Wall(f64),
    /// A rate: fails when it shrinks past
    /// [`CRASH_RATIO`](crate::diff::CRASH_RATIO).
    Throughput,
    /// A health counter: fails on any increase.
    Counter,
    /// Evidence that a drill or a profile ran: a nonzero value may not
    /// fall to zero, unless NEW restored cells from its journal (those
    /// cells carry no stage profile).
    Drill,
    /// Per-invocation bookkeeping and traffic tallies: not compared.
    Free,
}

use Class::{Counter, Deterministic as Exact, Drill, Free, Throughput};

/// Milliseconds of wall clock, with a 10 ms noise floor.
const MS: Class = Class::Wall(10.0);
/// Nanoseconds of wall clock, with the same floor.
const NS: Class = Class::Wall(1e7);

/// One document kind: its `schema` tag and its fields.
#[derive(Debug)]
pub struct Schema {
    /// The document's `schema` value.
    pub tag: &'static str,
    /// Each class with its paths; see the module documentation.
    pub fields: &'static [(Class, &'static [&'static str])],
}

/// Every document kind `bench diff` and the view understand.
pub const SCHEMAS: [Schema; 6] = [
    Schema {
        tag: "simty-bench-sweep/v1",
        fields: &[
            (Exact, &["schema", "runs", "harness", "results"]),
            (Free, &["threads", "journal_skips"]),
            (MS, &["total_wall_ms", "sequential_wall_ms"]),
            (MS, &["quantiles.cell_wall_ms", "results.*.wall_ms"]),
            (NS, &["stages.*.ns"]),
            (Drill, &["stages.*.calls"]),
            (Throughput, &["runs_per_sec"]),
        ],
    },
    Schema {
        tag: "simty-bench-chaos/v1",
        fields: &[
            (Exact, &["schema", "runs", "harness", "results", "policies"]),
            (Free, &["journal_skips"]),
            (MS, &["quantiles.cell_wall_ms"]),
        ],
    },
    Schema {
        tag: "simty-bench-soak/v1",
        fields: &[
            (Exact, &["schema", "runs", "harness", "results", "policies"]),
            (Free, &["journal_skips"]),
            (MS, &["resume_wall_ms", "quantiles.cell_wall_ms"]),
        ],
    },
    Schema {
        tag: "simty-bench-storm/v1",
        fields: &[
            (Exact, &["schema", "runs", "harness", "results", "policies"]),
            (Free, &["journal_skips"]),
            (MS, &["quantiles.cell_wall_ms"]),
        ],
    },
    Schema {
        tag: "simty-fleet/v1",
        fields: &[
            (
                Exact,
                &["schema", "devices", "shards", "seed", "duration_ms"],
            ),
            (
                Exact,
                &["policies", "harness", "metrics", "aggregates", "cells"],
            ),
            (Exact, &["quantiles.device_power_mw"]),
            (Free, &["threads", "journal_skips"]),
            (MS, &["total_wall_ms", "quantiles.cell_wall_ms"]),
            (MS, &["cells.*.wall_ms"]),
            (Throughput, &["devices_per_sec"]),
        ],
    },
    Schema {
        tag: "simty-serve/v1",
        fields: &[
            (Exact, &["schema", "harness"]),
            (Free, &["load", "server"]),
            (MS, &["harness.wall_ms", "latency_ms", "server.drain_ms"]),
            (Throughput, &["harness.rps"]),
            (Drill, &["load.deferred", "load.rejected", "load.shed"]),
            (Drill, &["server.shed"]),
            (Counter, &["server.invariant_violations"]),
            (Counter, &["server.telemetry_dropped"]),
        ],
    },
];

impl Schema {
    /// The schema `document`'s `schema` field names.
    ///
    /// # Errors
    ///
    /// A document without a `schema` string, or with an unknown one.
    pub(crate) fn of(document: &JsonValue) -> Result<&'static Schema, String> {
        let tag = document
            .get("schema")
            .and_then(JsonValue::as_str)
            .ok_or("document carries no `schema` field")?;
        SCHEMAS
            .iter()
            .find(|schema| schema.tag == tag)
            .ok_or_else(|| format!("document has unknown schema `{tag}`"))
    }

    /// The class of the field at `path`: `None` for a branch that only
    /// leads to declared paths (the root, `stages`, `results.3`, ...).
    ///
    /// # Errors
    ///
    /// A field neither declared, nor under a declared path, nor on the
    /// way to one.
    pub(crate) fn class(&self, path: &[String]) -> Result<Option<Class>, String> {
        let (mut class, mut depth, mut branch) = (None, 0, false);
        for &(declared, patterns) in self.fields {
            for pattern in patterns {
                let len = pattern.split('.').count();
                let on_path = (pattern.split('.').zip(path)).all(|(p, key)| p == "*" || p == key);
                if on_path && len <= path.len() && len > depth {
                    (class, depth) = (Some(declared), len);
                }
                branch |= on_path && len > path.len();
            }
        }
        if class.is_none() && !branch {
            return Err(format!("undeclared field `{}`", path.join(".")));
        }
        Ok(class)
    }

    /// Drops from `value`, the field at `path`, everything outside the
    /// [`Class::Deterministic`] class, and every branch that leaves
    /// empty; whether anything of `value` is left.
    fn retain(&self, value: &mut JsonValue, path: &mut Vec<String>) -> Result<bool, String> {
        let exact = self.class(path)? == Some(Exact);
        match value {
            JsonValue::Obj(members) => {
                for (key, mut child) in std::mem::take(members) {
                    path.push(key);
                    let keep = self.retain(&mut child, path)?;
                    let key = path.pop().expect("pushed above");
                    if keep {
                        members.push((key, child));
                    }
                }
                Ok(exact || !members.is_empty())
            }
            JsonValue::Arr(items) => {
                for (i, mut child) in std::mem::take(items).into_iter().enumerate() {
                    path.push(i.to_string());
                    if self.retain(&mut child, path)? {
                        items.push(child);
                    }
                    path.pop();
                }
                Ok(exact || !items.is_empty())
            }
            _ => Ok(exact),
        }
    }
}

/// The deterministic view of a campaign document: the document without
/// every field outside the [`Class::Deterministic`] class (and without
/// the branches that leaves empty). Parallel, sequential and
/// journal-resumed runs of one grid have equal views, and a view renders
/// (`Display`) to the bytes its writer gave those fields.
///
/// # Errors
///
/// A parse failure, an unknown schema, or an undeclared field.
pub fn deterministic_view(document: &str) -> Result<JsonValue, String> {
    let mut view = JsonValue::parse(document)?;
    Schema::of(&view)?.retain(&mut view, &mut Vec::new())?;
    Ok(view)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(dotted: &str) -> Vec<String> {
        dotted.split('.').map(str::to_owned).collect()
    }

    #[test]
    fn a_field_takes_the_class_of_its_longest_declared_ancestor() {
        let serve = &SCHEMAS[5];
        assert_eq!(serve.class(&path("latency_ms.q99")), Ok(Some(MS)));
        assert_eq!(serve.class(&[]), Ok(None));
        assert_eq!(serve.class(&path("harness.seed")), Ok(Some(Exact)));
        assert_eq!(serve.class(&path("harness.rps")), Ok(Some(Throughput)));
        assert_eq!(serve.class(&path("load.sent")), Ok(Some(Free)));
        assert_eq!(serve.class(&path("load.shed")), Ok(Some(Drill)));
        assert!(serve.class(&path("bogus")).is_err());
        let sweep = &SCHEMAS[0];
        assert_eq!(sweep.class(&path("stages.delivery")), Ok(None));
        assert_eq!(sweep.class(&path("stages.delivery.ns")), Ok(Some(NS)));
        assert_eq!(
            sweep.class(&path("stages.delivery.bogus")).unwrap_err(),
            "undeclared field `stages.delivery.bogus`"
        );
        assert_eq!(sweep.class(&path("results.3.wall_ms")), Ok(Some(MS)));
        assert_eq!(
            sweep.class(&path("results.3.report.energy_mj.total")),
            Ok(Some(Exact))
        );
    }

    #[test]
    fn the_view_drops_every_field_that_may_vary() {
        let doc = "{\"schema\":\"simty-bench-sweep/v1\",\"threads\":4,\"runs\":1,\
                   \"harness\":{\"cells\":1},\"stages\":{\"selection\":{\"ns\":5,\"calls\":1}},\
                   \"quantiles\":{\"cell_wall_ms\":null},\
                   \"results\":[{\"label\":\"a\",\"wall_ms\":1.5,\"report\":{\"x\":[]}}]}";
        assert_eq!(
            deterministic_view(doc).unwrap().to_string(),
            "{\"schema\":\"simty-bench-sweep/v1\",\"runs\":1,\"harness\":{\"cells\":1},\
             \"results\":[{\"label\":\"a\",\"report\":{\"x\":[]}}]}"
        );
        let undeclared = doc.replacen("\"runs\"", "\"walls\"", 1);
        assert_eq!(
            deterministic_view(&undeclared).unwrap_err(),
            "undeclared field `walls`"
        );
        assert!(deterministic_view("{\"schema\":\"simty-bench-nope/v1\"}").is_err());
    }
}

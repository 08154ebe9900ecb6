//! Rule 1 — mediation: every syscall reaching object state is dominated
//! by a label check.
//!
//! The engine reads the `syscalls! { … }` table (the one place the ABI is
//! written down; the macro generates `dispatch_inner`, the single choke
//! point every `Kernel::dispatch` / batched-ABI call funnels through),
//! collects each row's `sys_*` target plus the batched handle ops
//! (`handle_open` / `handle_close` from `dispatch_batch_collect`), and
//! analyzes each target body as a token stream:
//!
//! * **Checks** are calls whose job is a label decision:
//!   `check_observe`, `check_modify`, `check_entry`, `check_spawn`,
//!   `check_set_label`, `check_set_clearance`, `check_record_observe`,
//!   `check_record_modify`, `create_object` (which internally performs
//!   `check_modify` + `can_allocate`), `can_allocate`, and `.owns(…)`
//!   (category-ownership tests).
//! * **Heap accesses** reach the object table or ABI-edge state:
//!   `self.objects`, `self.handles`, `self.completions`, `self.watchers`,
//!   `self.remote_bindings`, `self.remote_index`, and the typed accessors
//!   `obj`/`obj_mut`/`typed`/`container`/`thread`/`thread_mut`/`dealloc`.
//!   Accessors keyed by the calling thread itself (`tid` literal) are
//!   *self accesses*: a thread may always touch its own state (§3 of the
//!   paper: observing yourself leaks nothing new).
//! * **Record accesses** reach the single-level store: `self.store` and
//!   `self.persist_record`. Record labels ride *inside* the record, so
//!   lexical check-before-access cannot hold (the record must be read to
//!   learn its label); for the record class the rule instead requires a
//!   `check_record_*` call somewhere in the body before the payload can
//!   legally flow out.
//!
//! Verdicts per entry point: a body with a flagged access needs a check
//! lexically before the first heap access (record class: anywhere), or a
//! `// flowcheck: exempt(reason)` marker on the fn. A body with *no*
//! access and *no* check is check-free and must carry a marker too —
//! that's the auditable TCB list. Delegation (`self.sys_x` calling
//! `self.sys_y`) inherits the delegate's verdict. The engine also
//! verifies completeness (every table row routes to a `sys_*` body; no
//! inline state access in the generated `dispatch_inner` template) and
//! sanity-checks the trusted check helpers
//! (each `check_*` must contain an actual label comparison: `leq`,
//! `leq_high_rhs`, `leq_high_both`, or `count_label_check`).

use crate::model::{matches_seq, SourceFile};
use crate::report::{Exemption, Finding};
use std::collections::{BTreeMap, BTreeSet};

const CHECK_CALLS: &[&str] = &[
    "check_observe",
    "check_modify",
    "check_entry",
    "check_spawn",
    "check_set_label",
    "check_set_clearance",
    "check_record_observe",
    "check_record_modify",
    "create_object",
    "can_allocate",
];

/// `self.<field>` uses that count as heap access. Keyed self-probes
/// (`self.completions.get_mut(&tid)`) are self accesses.
const STATE_FIELDS: &[&str] = &[
    "objects",
    "handles",
    "completions",
    "watchers",
    "remote_bindings",
    "remote_index",
];

/// `self.<accessor>(arg, …)`: heap access unless the first argument is
/// the literal `tid` (the calling thread's own state).
const ACCESSORS: &[&str] = &[
    "obj",
    "obj_mut",
    "typed",
    "container",
    "thread",
    "thread_mut",
    "thread_label",
    "thread_clearance",
    "dealloc",
];

/// Trusted helpers whose own bodies must contain a real label comparison.
const CHECK_HELPERS: &[&str] = &[
    "check_observe",
    "check_modify",
    "check_entry",
    "check_record_observe",
    "check_record_modify",
];

const LABEL_COMPARES: &[&str] = &[
    "leq",
    "leq_high_rhs",
    "leq_high_both",
    "count_label_check",
    "can_allocate",
];

#[derive(Debug)]
struct BodyScan {
    first_check: Option<usize>,
    first_heap: Option<(usize, u32, String)>,
    has_record: Option<(u32, String)>,
    has_record_check: bool,
    delegates: Vec<String>,
}

/// One row of the `syscalls!` table: the variant it declares and the
/// method its dispatch arm calls (`None` if the row names none).
struct TableRow {
    variant: String,
    target: Option<String>,
    line: u32,
}

/// Analysis entry: runs the mediation rule over the given files and
/// appends findings/exemptions.
pub fn run(files: &[SourceFile], findings: &mut Vec<Finding>, exemptions: &mut Vec<Exemption>) {
    let Some((tf, rows)) = files
        .iter()
        .find_map(|f| table_rows(f).map(|rows| (f, rows)))
    else {
        findings.push(Finding {
            rule: "mediation",
            file: files.first().map(|f| f.path.clone()).unwrap_or_default(),
            line: 0,
            message: "no `syscalls!` table found: the syscall choke point is missing".into(),
        });
        return;
    };

    // Entry points and completeness come from the table: every row must
    // route its syscall to a `sys_*` body, and every target is analyzed.
    let mut entry_points: BTreeSet<String> = BTreeSet::new();
    for row in rows {
        match &row.target {
            Some(t) if t.starts_with("sys_") => {}
            _ => findings.push(Finding {
                rule: "mediation",
                file: tf.path.clone(),
                line: row.line,
                message: format!(
                    "syscall `{}` is in the syscalls! table but its row routes to no sys_* method",
                    row.variant
                ),
            }),
        }
        entry_points.extend(row.target);
    }

    // Dispatcher hygiene: the generated dispatch arms must delegate, never
    // touch state inline.
    if let Some((df, item)) = find_method(files, "dispatch_inner") {
        if let Some((line, what)) = first_state_access(df, item.body_open, item.body_close) {
            findings.push(Finding {
                rule: "mediation",
                file: df.path.clone(),
                line,
                message: format!(
                    "dispatch arm accesses `{what}` inline; arms must delegate to a sys_* method"
                ),
            });
        }
    }

    // Batched ABI path: handle ops invoked from dispatch_batch_collect
    // (or any dispatch_* fn) are entry points too.
    for f in files {
        for item in &f.fns {
            if !item.name.starts_with("dispatch") {
                continue;
            }
            for i in item.body_open..item.body_close {
                let t = &f.tokens[i];
                if (t.text == "handle_open"
                    || t.text == "handle_close"
                    || t.text == "handle_open_reuse")
                    && i >= 2
                    && matches_seq(&f.tokens, i - 2, &["self", "."])
                    && f.tokens.get(i + 1).map(|t| t.text.as_str()) == Some("(")
                {
                    entry_points.insert(t.text.clone());
                }
            }
        }
    }

    // Analyze every entry point (plus transitive delegates).
    let mut verdicts: BTreeMap<String, ()> = BTreeMap::new();
    let mut queue: Vec<String> = entry_points.iter().cloned().collect();
    while let Some(name) = queue.pop() {
        if verdicts.contains_key(&name) {
            continue;
        }
        verdicts.insert(name.clone(), ());
        let Some((f, item)) = find_method(files, &name) else {
            findings.push(Finding {
                rule: "mediation",
                file: tf.path.clone(),
                line: 0,
                message: format!(
                    "dispatch target `{name}` has no definition in the analyzed files"
                ),
            });
            continue;
        };
        let scan = scan_body(f, item.body_open, item.body_close);
        for d in &scan.delegates {
            queue.push(d.clone());
        }
        let marker = f.marker_for_fn(item);

        // Heap class: check must lexically dominate the first access.
        if let Some((aidx, aline, what)) = &scan.first_heap {
            let dominated = scan.first_check.map(|c| c < *aidx).unwrap_or(false);
            if !dominated {
                match marker {
                    Some(m) => exemptions.push(Exemption {
                        rule: "mediation",
                        name: name.clone(),
                        file: f.path.clone(),
                        reason: m.reason.clone(),
                    }),
                    None => findings.push(Finding {
                        rule: "mediation",
                        file: f.path.clone(),
                        line: *aline,
                        message: format!(
                            "`{name}` reaches object state (`{what}`) with no label check before it"
                        ),
                    }),
                }
                continue;
            }
        }

        // Record class: a record check must exist somewhere in the body.
        if let Some((rline, what)) = &scan.has_record {
            if !scan.has_record_check {
                match marker {
                    Some(m) => exemptions.push(Exemption {
                        rule: "mediation",
                        name: name.clone(),
                        file: f.path.clone(),
                        reason: m.reason.clone(),
                    }),
                    None => findings.push(Finding {
                        rule: "mediation",
                        file: f.path.clone(),
                        line: *rline,
                        message: format!(
                            "`{name}` reaches store records (`{what}`) without a check_record_* call"
                        ),
                    }),
                }
                continue;
            }
        }

        // Check-free and access-free bodies: self-only / pure-metadata
        // syscalls. They must be marked, or delegate to something checked.
        let has_access = scan.first_heap.is_some() || scan.has_record.is_some();
        let has_check = scan.first_check.is_some() || scan.has_record_check;
        if !has_access && !has_check && scan.delegates.is_empty() {
            match marker {
                Some(m) => exemptions.push(Exemption {
                    rule: "mediation",
                    name: name.clone(),
                    file: f.path.clone(),
                    reason: m.reason.clone(),
                }),
                None => findings.push(Finding {
                    rule: "mediation",
                    file: f.path.clone(),
                    line: item.line,
                    message: format!(
                        "`{name}` is check-free; self-only/pure-metadata syscalls need `// flowcheck: exempt(reason)`"
                    ),
                }),
            }
        }
    }

    // Sanity-check the trusted helpers: a "check" that compares nothing
    // is a hole in the TCB.
    for helper in CHECK_HELPERS {
        if let Some((f, item)) = find_method(files, helper) {
            let mut compares = false;
            for i in item.body_open..item.body_close {
                let t = &f.tokens[i].text;
                // A direct label comparison, or delegation to another
                // trusted helper (check_entry starts with check_observe).
                if LABEL_COMPARES.contains(&t.as_str())
                    || (CHECK_HELPERS.contains(&t.as_str()) && t != helper)
                {
                    compares = true;
                    break;
                }
            }
            if !compares {
                findings.push(Finding {
                    rule: "mediation",
                    file: f.path.clone(),
                    line: item.line,
                    message: format!(
                        "trusted helper `{helper}` contains no label comparison (leq/leq_high_rhs/can_allocate)"
                    ),
                });
            }
        }
    }
}

/// Scans a fn body for the first check, first heap access, record access,
/// and sys_*/handle_* delegation calls.
fn scan_body(f: &SourceFile, open: usize, close: usize) -> BodyScan {
    let mut scan = BodyScan {
        first_check: None,
        first_heap: None,
        has_record: None,
        has_record_check: false,
        delegates: Vec::new(),
    };
    let toks = &f.tokens;
    for i in open..close {
        let t = &toks[i].text;

        // Checks: `self . check_x (` / `create_object (` / `. owns (`.
        let is_check_call = CHECK_CALLS.contains(&t.as_str())
            && toks.get(i + 1).map(|t| t.text.as_str()) == Some("(");
        let is_owns = t == "owns"
            && i >= 1
            && toks[i - 1].text == "."
            && toks.get(i + 1).map(|t| t.text.as_str()) == Some("(");
        if is_check_call || is_owns {
            if scan.first_check.is_none() {
                scan.first_check = Some(i);
            }
            if t.starts_with("check_record") || t == "can_allocate" {
                scan.has_record_check = true;
            }
            continue;
        }

        // Everything below keys off `self . X`.
        if !(i >= 2 && matches_seq(toks, i - 2, &["self", "."])) {
            continue;
        }

        if t == "store" || (t == "persist_record" && next_is(toks, i, "(")) {
            if scan.has_record.is_none() {
                scan.has_record = Some((toks[i].line, format!("self.{t}")));
            }
            continue;
        }

        if STATE_FIELDS.contains(&t.as_str()) {
            if !is_self_keyed_field_use(toks, i) && scan.first_heap.is_none() {
                scan.first_heap = Some((i, toks[i].line, format!("self.{t}")));
            }
            continue;
        }

        if ACCESSORS.contains(&t.as_str()) && next_is(toks, i, "(") {
            // `self.obj(tid)` / `self.thread_mut(tid)` are self accesses.
            let first_arg = toks.get(i + 2).map(|t| t.text.as_str());
            let self_keyed = first_arg == Some("tid");
            if !self_keyed && scan.first_heap.is_none() {
                scan.first_heap = Some((i, toks[i].line, format!("self.{t}()")));
            }
            continue;
        }

        if (t.starts_with("sys_") || t.starts_with("handle_")) && next_is(toks, i, "(") {
            scan.delegates.push(t.clone());
        }
    }
    scan
}

/// `self.<field>.method(&tid…)` — keyed by the calling thread — is a
/// self access; everything else reaching a state field is a heap access.
fn is_self_keyed_field_use(toks: &[crate::lex::Token], i: usize) -> bool {
    if next_is(toks, i, ".") && toks.get(i + 3).map(|t| t.text.as_str()) == Some("(") {
        let mut j = i + 4;
        if toks.get(j).map(|t| t.text.as_str()) == Some("&") {
            j += 1;
        }
        if toks.get(j).map(|t| t.text.as_str()) == Some("tid") {
            return true;
        }
    }
    false
}

fn next_is(toks: &[crate::lex::Token], i: usize, text: &str) -> bool {
    toks.get(i + 1).map(|t| t.text.as_str()) == Some(text)
}

/// First inline state access in a token range that is *not* part of a
/// `self.sys_*` / `self.handle_*` call chain (dispatcher hygiene).
fn first_state_access(f: &SourceFile, open: usize, close: usize) -> Option<(u32, String)> {
    let toks = &f.tokens;
    for i in open..close {
        let t = &toks[i].text;
        if !(i >= 2 && matches_seq(toks, i - 2, &["self", "."])) {
            continue;
        }
        if STATE_FIELDS.contains(&t.as_str()) || t == "store" {
            return Some((toks[i].line, format!("self.{t}")));
        }
        if ACCESSORS.contains(&t.as_str()) && next_is(toks, i, "(") {
            let first_arg = toks.get(i + 2).map(|t| t.text.as_str());
            if first_arg != Some("tid") {
                return Some((toks[i].line, format!("self.{t}()")));
            }
        }
    }
    None
}

/// Locates a method definition by name across the analyzed files.
fn find_method<'a>(
    files: &'a [SourceFile],
    name: &str,
) -> Option<(&'a SourceFile, &'a crate::model::FnItem)> {
    for f in files {
        if let Some(item) = f.find_fn(name) {
            return Some((f, item));
        }
    }
    None
}

/// Reads the rows of a `syscalls! { … }` invocation (not the
/// `macro_rules! syscalls` definition), if the file has one.  A row runs
/// to the next top-level `;`: its first top-level identifier is the
/// variant and the identifier after `=>` is the dispatch target.  Doc
/// comments are stripped by the lexer and field lists sit inside braces,
/// so neither is mistaken for either.
fn table_rows(f: &SourceFile) -> Option<Vec<TableRow>> {
    let toks = &f.tokens;
    let open = (0..toks.len()).find(|&i| {
        matches_seq(toks, i, &["syscalls", "!", "{"]) && (i == 0 || toks[i - 1].text != "!")
    })? + 2;
    let close = crate::model::match_brace(toks, open);
    let mut rows = Vec::new();
    let mut row: Option<TableRow> = None;
    let mut depth = 0i32;
    let mut k = open + 1;
    while k < close {
        let t = toks[k].text.as_str();
        match t {
            "{" | "(" | "[" => depth += 1,
            "}" | ")" | "]" => depth -= 1,
            ";" if depth == 0 => rows.extend(row.take()),
            "=" if depth == 0 && next_is(toks, k, ">") => {
                let target = toks.get(k + 2).map(|t| t.text.as_str());
                if let (Some(r), Some(name)) = (row.as_mut(), target) {
                    if name.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_') {
                        r.target = Some(name.to_string());
                    }
                }
            }
            _ if depth == 0 && row.is_none() && t.starts_with(|c: char| c.is_ascii_uppercase()) => {
                row = Some(TableRow {
                    variant: t.to_string(),
                    target: None,
                    line: toks[k].line,
                });
            }
            _ => {}
        }
        k += 1;
    }
    Some(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rows_skip_the_macro_definition_and_read_each_row() {
        let src = "syscalls! {\n\
                   Ping => sys_ping, trap_ping -> Unit(());\n\
                   Read { entry: ContainerEntry, len: Option<u64> } => sys_read, trap_read -> Bytes(Vec<u8>);\n\
                   Orphan { id: ObjectId } => , trap_orphan -> Unit(());\n\
                   }\n\
                   macro_rules! syscalls { ($($t:tt)*) => {}; }";
        let f = SourceFile::parse("t.rs", src);
        let rows = table_rows(&f).expect("table found");
        let got: Vec<(&str, Option<&str>)> = rows
            .iter()
            .map(|r| (r.variant.as_str(), r.target.as_deref()))
            .collect();
        assert_eq!(
            got,
            [
                ("Ping", Some("sys_ping")),
                ("Read", Some("sys_read")),
                ("Orphan", None)
            ]
        );
    }
}

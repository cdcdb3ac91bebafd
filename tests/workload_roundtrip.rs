//! Printer/parser round-trips for the entire workload suite, at every
//! supported size scale: each module in `encore_workloads::all()` —
//! and its `scaled(10)` / `scaled(100)` variants — must survive
//! `display → parse → display` unchanged, and the reparsed module must
//! still verify. Scaling only grows global data, but 100× mediabench
//! tables are exactly where a printer or parser with a length-dependent
//! bug would break first.

use encore::ir::{parse_module, verify_module, MAX_OBJECT_CELLS};
use encore::workloads::Workload;

/// The scale tiers every suite workload must survive.
const SCALES: [u32; 3] = [1, 10, 100];

fn scaled_suite() -> Vec<Workload> {
    let suite = encore::workloads::all();
    assert!(!suite.is_empty());
    suite
        .iter()
        .flat_map(|w| SCALES.iter().map(|&s| w.scaled(s)))
        .collect()
}

#[test]
fn every_workload_round_trips_through_text_at_every_scale() {
    for w in scaled_suite() {
        let spec = w.spec();
        let text = w.module.to_string();
        let reparsed = parse_module(&text)
            .unwrap_or_else(|e| panic!("{spec}: reparse failed: {e}\n{text}"));
        assert_eq!(reparsed, w.module, "{spec}: parse(print(m)) != m");
        verify_module(&reparsed).unwrap_or_else(|e| panic!("{spec}: {e:?}"));
    }
}

#[test]
fn workload_printing_is_stable_at_every_scale() {
    // A second print of the reparsed module is byte-identical: the
    // textual form is a fixpoint, so goldens diffed across runs or
    // machines never churn.
    for w in scaled_suite() {
        let text = w.module.to_string();
        let reparsed = parse_module(&text).expect("reparse");
        assert_eq!(text, reparsed.to_string(), "{}: printing is not a fixpoint", w.spec());
    }
}

/// A global count too large to allocate is an error in the text, not an
/// abort when a machine allocates it: one that does not fit the `u32` it
/// is stored as fails to parse, and one that fits but passes the
/// verifier's object bound fails to verify. Both mutate 164.gzip's
/// 64-cell `hash_tab`.
#[test]
fn oversized_globals_are_rejected_before_allocation() {
    let w = encore::workloads::by_name("164.gzip").expect("known workload");
    let text = w.module.to_string();
    let original = "global \"hash_tab\" cells=64 ";
    assert!(text.contains(original), "164.gzip declares hash_tab with 64 cells");
    let mutant =
        |cells: &str| text.replace(original, &format!("global \"hash_tab\" cells={cells} "));

    let err = parse_module(&mutant("9223372036854775807")).expect_err("count past u32");
    assert!(err.message.contains("does not fit in a u32"), "{err}");

    let parsed = parse_module(&mutant("4294967295")).expect("u32::MAX fits the count");
    let errs = verify_module(&parsed).expect_err("u32::MAX cells is past the object bound");
    assert!(
        errs.iter().any(|e| e.message.contains("global `hash_tab` has 4294967295 cells")),
        "{errs:?}"
    );
    let at_bound = parse_module(&mutant(&MAX_OBJECT_CELLS.to_string())).expect("parses");
    assert!(verify_module(&at_bound).is_ok(), "the bound itself is allowed");
}

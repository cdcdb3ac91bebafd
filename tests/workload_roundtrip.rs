//! Printer/parser round-trips for the entire workload suite, at every
//! supported size scale: each module in `encore_workloads::all()` —
//! and its `scaled(10)` / `scaled(100)` variants — must survive
//! `display → parse → display` unchanged, and the reparsed module must
//! still verify. Scaling only grows global data, but 100× mediabench
//! tables are exactly where a printer or parser with a length-dependent
//! bug would break first.
//!
//! The same text, mutated, must never take the process down: a mutant
//! is a parse error, a verify error, or a run that completes or traps.

use encore::ir::{parse_module, verify_module, FuncId, MAX_OBJECT_CELLS};
use encore::sim::rng::{Rng, SplitMix64};
use encore::sim::{run_function, RunConfig, Value};
use encore::workloads::{fuzz, Workload};

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

/// The values a mutated number takes: zero, a negative count, and the
/// edges of `i32` and `u32`, where a count cast or multiplied by a cell
/// size would overflow or ask for gigabytes.
const MUTANT_NUMBERS: [&str; 5] = ["0", "-1", "2147483648", "4294967295", "4000000000"];

/// The byte ranges of `line`'s numbers: digit runs, with a leading `-`,
/// that are not part of a name such as `r12`, `bb3`, `h0` or `fn1`.
fn numbers(line: &str) -> Vec<(usize, usize)> {
    let b = line.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < b.len() {
        let named = i > 0 && (b[i - 1].is_ascii_alphanumeric() || b[i - 1] == b'_');
        if b[i].is_ascii_digit() && !named {
            let start = if i > 0 && b[i - 1] == b'-' { i - 1 } else { i };
            let end = i + b[i..].iter().take_while(|c| c.is_ascii_digit()).count();
            out.push((start, end));
            i = end;
        } else {
            i += 1;
        }
    }
    out
}

/// The byte ranges of the function ids (`fnN`) in `line`.
fn fn_ids(line: &str) -> Vec<(usize, usize)> {
    line.match_indices("fn")
        .filter_map(|(i, _)| {
            let digits = line[i + 2..].bytes().take_while(u8::is_ascii_digit).count();
            (digits > 0).then_some((i, i + 2 + digits))
        })
        .collect()
}

/// `text` with byte range `span` of line `at` replaced by `with`.
fn splice_token(text: &str, at: usize, (start, end): (usize, usize), with: &str) -> String {
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    lines[at] = format!("{}{with}{}", &lines[at][..start], &lines[at][end..]);
    lines.join("\n")
}

/// Every mutant of `text` that changes one count on a `func`, `global`
/// or `heap_sites` line to each of [`MUTANT_NUMBERS`] (`init=[...]`
/// lists are data, not counts), or retargets one call to each other
/// function of the module, which can make a function call itself.
fn structural_mutants(text: &str) -> Vec<String> {
    let funcs = text.lines().filter(|l| l.trim_start().starts_with("func ")).count();
    let mut out = Vec::new();
    for (at, line) in text.lines().enumerate() {
        let header =
            ["func ", "global ", "heap_sites "].iter().any(|h| line.trim_start().starts_with(h));
        let counts_end = line.find("init=").unwrap_or(line.len());
        for span in numbers(line) {
            if header && span.0 < counts_end {
                out.extend(MUTANT_NUMBERS.map(|v| splice_token(text, at, span, v)));
            }
        }
        for span in fn_ids(line) {
            out.extend((0..funcs).map(|f| splice_token(text, at, span, &format!("fn{f}"))));
        }
    }
    out
}

/// The bytes a byte-level mutant writes: the format's digits and
/// punctuation, and the letters that start its names and suffixes.
const MUTANT_BYTES: &[u8] = b"0123456789-+*=,.:[](){}\" \nrbgfhe";

/// One random mutant of `text`. Token-level: a number of a random line
/// replaced by one of [`MUTANT_NUMBERS`], or the line dropped or
/// duplicated. Byte-level: a byte deleted, replaced or preceded by one
/// of [`MUTANT_BYTES`], or a span of up to 8 bytes copied to another
/// place.
fn random_mutant(text: &str, rng: &mut SplitMix64) -> String {
    let arm = rng.gen_below(7);
    if arm < 3 {
        let mut lines: Vec<&str> = text.lines().collect();
        let at = rng.gen_usize(lines.len());
        let spans = numbers(lines[at]);
        match arm {
            0 if !spans.is_empty() => {
                let value = MUTANT_NUMBERS[rng.gen_usize(MUTANT_NUMBERS.len())];
                return splice_token(text, at, spans[rng.gen_usize(spans.len())], value);
            }
            1 => {
                lines.remove(at);
            }
            _ => lines.insert(at, lines[at]),
        }
        return lines.join("\n");
    }
    let mut bytes = text.as_bytes().to_vec();
    let at = rng.gen_usize(bytes.len());
    let byte = MUTANT_BYTES[rng.gen_usize(MUTANT_BYTES.len())];
    match arm {
        3 => {
            bytes.remove(at);
        }
        4 => bytes[at] = byte,
        5 => bytes.insert(at, byte),
        _ => {
            let span = bytes[at..bytes.len().min(at + 1 + rng.gen_usize(8))].to_vec();
            let to = rng.gen_usize(bytes.len() + 1);
            bytes.splice(to..to, span);
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Mutants of a printed 175.vpr, 164.gzip and a few fuzz programs are
/// each rejected by `parse_module` or `verify_module`, or run under a
/// 10⁵-instruction fuel budget to completion or to a trap: none panics
/// or aborts the process. The structural mutants are all taken (a
/// register file or a site table too large to allocate once aborted
/// the process); 6,000 more, token- and byte-level, are drawn with a
/// fixed seed.
#[test]
fn mutated_modules_are_errors_or_traps_never_aborts() {
    let mut texts: Vec<String> = ["175.vpr", "164.gzip"]
        .iter()
        .map(|n| encore::workloads::by_name(n).expect("known workload").module.to_string())
        .collect();
    texts.extend((0..6).map(|i| fuzz::build(&fuzz::program_for(0xC0FFEE, i)).0.to_string()));
    let mut mutants: Vec<String> = texts.iter().flat_map(|t| structural_mutants(t)).collect();
    let mut rng = SplitMix64::new(0x3A7A7E);
    for _ in 0..6000 {
        mutants.push(random_mutant(&texts[rng.gen_usize(texts.len())], &mut rng));
    }

    let config = RunConfig { fuel: 100_000, ..Default::default() };
    let (mut parse_errors, mut verify_errors, mut traps) = (0, 0, 0);
    for text in &mutants {
        let Ok(m) = parse_module(text) else {
            parse_errors += 1;
            continue;
        };
        if verify_module(&m).is_err() {
            verify_errors += 1;
            continue;
        }
        let Some(last) = m.funcs.len().checked_sub(1) else { continue };
        let r = run_function(&m, None, FuncId::new(last as u32), &[Value::Int(3)], &config);
        assert_ne!(r.completed, r.trap.is_some(), "a run either completes or traps:\n{text}");
        traps += usize::from(r.trap.is_some());
    }
    let counts = format!(
        "{} mutants: {parse_errors} parse errors, {verify_errors} verify errors, {traps} traps",
        mutants.len()
    );
    println!("{counts}");
    assert!(parse_errors > 0 && verify_errors > 0 && traps > 0, "{counts}");
}

/// Four module shapes that each aborted the process (a failed host
/// allocation) now end in a verify error or a memory trap: a register
/// file of 4·10⁹ registers, a function that calls itself without end,
/// a frame whose slots are each within bounds but total 5 GB, and
/// globals that total 5 GB. The frame's first slot has one cell, so
/// its second trips the bound before anything large is allocated.
#[test]
fn modules_too_large_to_run_are_errors_or_traps() {
    let func = |name: &str, regs: u32, slots: &str, body: &str| {
        format!("  func \"{name}\" params=1 regs={regs} slots=[{slots}] {{\n  bb0:\n{body}  }}\n")
    };
    let module = |parts: String| format!("module \"m\" {{\n  heap_sites 0\n{parts}}}\n");
    let huge = MAX_OBJECT_CELLS.to_string();
    let slots = format!("1{}", format!(",{huge}").repeat(19));
    let huge_globals: String =
        (0..20).map(|i| format!("  global \"g{i}\" cells={huge} init=[]\n")).collect();
    let cases = [
        ("registers", module(func("f", 4_000_000_000, "", "    ret r0\n"))),
        (
            "recursion",
            module(func("fn0", 3, "", "    r1 = add r0, 1\n    r2 = call fn0(r1)\n    ret r2\n")),
        ),
        ("slots", module(func("f", 2, &slots, "    ret r0\n"))),
        ("globals", module(huge_globals + &func("f", 2, "", "    ret r0\n"))),
    ];
    let mut outcomes = Vec::new();
    for (name, text) in cases {
        let m = parse_module(&text).unwrap_or_else(|e| panic!("{name}: {e}\n{text}"));
        let outcome = match verify_module(&m) {
            Err(errs) => errs[0].to_string(),
            Ok(()) => {
                let r =
                    run_function(&m, None, FuncId::new(0), &[Value::Int(0)], &RunConfig::default());
                format!("{:?}", r.trap.expect("the run traps").kind)
            }
        };
        outcomes.push(outcome);
    }
    assert_eq!(
        outcomes,
        [
            "in function `f`: 4000000000 registers, more than the 65536 allowed",
            "Memory(\"call to `fn0` exceeds the 1024-frame call-depth bound\")",
            "Memory(\"slot of 16777216 cells exceeds the 16777216-cell bound on heap and slot \
             cells (1 in use)\")",
            "globals have 335544320 cells in all, more than the 33554432 allowed",
        ]
    );
}

//! Plain-text table and JSON rendering for the experiment binaries.
//!
//! The harnesses print the same rows/series the paper's figures plot; a
//! small fixed-width table keeps the output diff-able and easy to paste
//! into `EXPERIMENTS.md`. Campaign results additionally render as
//! hand-rolled JSON ([`campaign_json`]) so downstream tooling can
//! consume a full SFI campaign — outcome counts plus per-outcome
//! detection-latency histograms — without any serialization dependency.

use encore_core::alpha_at_latency;
use encore_sim::{CampaignReport, FaultOutcome, SpliceRule, SpliceStats, LATENCY_BINS};

/// A fixed-width text table.
#[derive(Clone, Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Self { header: header.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    /// Appends a row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        self.rows.push(cells);
        self
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                let w = widths.get(i).copied().unwrap_or(0);
                // Right-align numeric-looking cells, left-align text.
                if c.chars().next().map(|ch| ch.is_ascii_digit() || ch == '-').unwrap_or(false) {
                    line.push_str(&format!("{c:>w$}"));
                } else {
                    line.push_str(&format!("{c:<w$}"));
                }
            }
            line
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1));
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Escapes a string for embedding in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders a full SFI campaign as a JSON object: configuration
/// (including the `(seed, …)` needed to replay any injection), outcome
/// counts, derived fractions, and the per-outcome detection-latency
/// histograms.
pub fn campaign_json(workload: &str, report: &CampaignReport) -> String {
    let c = &report.config;
    let s = &report.stats;
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"workload\": \"{}\",\n", json_escape(workload)));
    out.push_str(&format!(
        "  \"config\": {{\"injections\": {}, \"dmax\": {}, \"seed\": {}, \
         \"fuel_factor\": {}, \"workers\": {}, \"snapshot_stride\": {}, \
         \"splice\": {}, \"fault_model\": \"{}\"}},\n",
        c.injections,
        c.dmax,
        c.seed,
        c.fuel_factor,
        c.workers,
        c.snapshot_stride,
        c.splice,
        c.model.label()
    ));
    out.push_str("  \"outcomes\": {");
    for (i, o) in FaultOutcome::ALL.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("\"{}\": {}", o.label(), s.count(*o)));
    }
    out.push_str("},\n");
    out.push_str(&format!(
        "  \"safe_fraction\": {:.6},\n  \"recovered_fraction\": {:.6},\n",
        s.safe_fraction(),
        s.recovered_fraction()
    ));
    let sp = &report.splice;
    out.push_str(&format!(
        "  \"splice\": {{\"converged\": {}, \"dead_diff\": {}, \"sdc\": {}, \
         \"total\": {}, \"dyn_insts_saved\": {}, \"probes\": {}, \
         \"pages_hashed\": {}, \"words_compared\": {}}},\n",
        sp.converged,
        sp.dead_diff,
        sp.sdc,
        sp.total(),
        sp.dyn_insts_saved,
        sp.cost.probes,
        sp.cost.pages_hashed,
        sp.cost.words_compared
    ));
    out.push_str("  \"latency_histograms\": {\n");
    for (i, o) in FaultOutcome::ALL.iter().enumerate() {
        let h = report.latency_of(*o);
        let bins: Vec<String> = h.bins.iter().map(u64::to_string).collect();
        out.push_str(&format!(
            "    \"{}\": {{\"dmax\": {}, \"bins\": [{}]}}{}\n",
            o.label(),
            h.dmax,
            bins.join(", "),
            if i + 1 < FaultOutcome::ALL.len() { "," } else { "" }
        ));
    }
    out.push_str("  }\n}\n");
    out
}

/// Tabulates recovery rate per detection-latency bin, cross-validating
/// the measured campaign against Eq. 6's point prediction
/// [`alpha_at_latency`] when a representative protected-region hot-path
/// length is supplied.
pub fn latency_table(report: &CampaignReport, hot_len: Option<u64>) -> Table {
    let mut header = vec!["latency", "injections", "recovered", "measured"];
    if hot_len.is_some() {
        header.push("Eq.6 predicts");
    }
    let mut table = Table::new(&header);
    let recovered = report.latency_of(FaultOutcome::Recovered);
    for bin in 0..LATENCY_BINS {
        let (lo, hi) = recovered.bin_range(bin);
        let total: u64 = FaultOutcome::ALL
            .iter()
            .map(|o| report.latency_of(*o).bins[bin])
            .sum();
        if total == 0 {
            continue;
        }
        // Benign outcomes never needed the rollback machinery, so the
        // recovery rate is measured among injections a detector acted on.
        let benign = report.latency_of(FaultOutcome::Benign).bins[bin];
        let active = total - benign;
        let rec = recovered.bins[bin];
        let mut row = vec![
            format!("[{lo}, {})", hi),
            total.to_string(),
            rec.to_string(),
            if active == 0 { "-".to_string() } else { pct(rec as f64 / active as f64) },
        ];
        if let Some(n) = hot_len {
            row.push(pct(alpha_at_latency(n, (lo + hi.saturating_sub(1)) / 2)));
        }
        table.row(row);
    }
    table
}

/// Tabulates the per-rule splice engagement breakdown of a campaign:
/// how many runs each early-exit rule certified, their share of all
/// injections, and (bottom row) the golden-suffix work skipped.
pub fn splice_table(injections: usize, splice: &SpliceStats) -> Table {
    let mut table = Table::new(&["splice rule", "runs", "share"]);
    let share = |n: usize| {
        if injections == 0 { "-".to_string() } else { pct(n as f64 / injections as f64) }
    };
    for rule in SpliceRule::ALL {
        let n = splice.count(rule);
        table.row(vec![rule.label().to_string(), n.to_string(), share(n)]);
    }
    table.row(vec!["total".to_string(), splice.total().to_string(), share(splice.total())]);
    table.row(vec![
        "suffix insts skipped".to_string(),
        splice.dyn_insts_saved.to_string(),
        "-".to_string(),
    ]);
    // Probe-cost footprint: what the splice paid for those savings.
    for (label, n) in [
        ("probes attempted", splice.cost.probes),
        ("pages hashed", splice.cost.pages_hashed),
        ("words compared", splice.cost.words_compared),
    ] {
        table.row(vec![label.to_string(), n.to_string(), "-".to_string()]);
    }
    table
}

/// Tabulates per-model outcome rows from one campaign report per fault
/// model (as produced by `SfiCampaign::run_models`): outcome counts and
/// the safe fraction, one row per model.
pub fn model_table(reports: &[CampaignReport]) -> Table {
    let mut table = Table::new(&[
        "model", "benign", "recovered", "SDC", "unrecov", "crashed", "hung", "safe",
    ]);
    for report in reports {
        let s = &report.stats;
        table.row(vec![
            report.model().to_string(),
            s.benign.to_string(),
            s.recovered.to_string(),
            s.silent_corruption.to_string(),
            s.detected_unrecoverable.to_string(),
            s.crashed.to_string(),
            s.hung.to_string(),
            pct(s.safe_fraction()),
        ]);
    }
    table
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Formats a float with two decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Prints a section banner.
pub fn banner(title: &str) {
    println!("\n=== {title} ===\n");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["name", "value"]);
        t.row(vec!["alpha".into(), "1.0".into()]);
        t.row(vec!["beta-longer".into(), "23.5".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[1].starts_with("---"));
        assert!(lines[3].contains("beta-longer"));
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.1234), "12.3%");
        assert_eq!(f2(1.005), "1.00");
    }

    #[test]
    fn json_escapes_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    fn tiny_report() -> CampaignReport {
        use encore_sim::{FaultPlan, SfiConfig};
        let config = SfiConfig { injections: 3, dmax: 15, seed: 9, ..Default::default() };
        let mut report = CampaignReport::new(config);
        report.record(FaultPlan::bit_flip(0, 0, 0), FaultOutcome::Recovered);
        report.record(FaultPlan::bit_flip(1, 1, 7), FaultOutcome::Benign);
        report.record(FaultPlan::bit_flip(2, 2, 15), FaultOutcome::SilentCorruption);
        report
    }

    #[test]
    fn campaign_json_is_complete_and_balanced() {
        let json = campaign_json("g721encode", &tiny_report());
        for key in [
            "\"workload\": \"g721encode\"",
            "\"seed\": 9",
            "\"snapshot_stride\":",
            "\"splice\": true",
            "\"fault_model\": \"bit_flip\"",
            "\"recovered\": 1",
            "\"benign\": 1",
            "\"silent_corruption\": 1",
            "\"splice\": {\"converged\": 0, \"dead_diff\": 0, \"sdc\": 0",
            "\"dyn_insts_saved\": 0",
            "\"probes\": 0",
            "\"pages_hashed\": 0",
            "\"words_compared\": 0",
            "\"latency_histograms\"",
        ] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
        // Structurally balanced (cheap sanity without a JSON parser).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn splice_table_breaks_down_rules() {
        use encore_sim::ProbeCost;
        let splice = SpliceStats {
            converged: 2,
            dead_diff: 1,
            sdc: 5,
            dyn_insts_saved: 900,
            cost: ProbeCost { probes: 40, pages_hashed: 320, words_compared: 128 },
        };
        let rendered = splice_table(10, &splice).render();
        assert!(rendered.contains("converged"), "{rendered}");
        assert!(rendered.contains("dead_diff"), "{rendered}");
        assert!(rendered.contains("sdc"), "{rendered}");
        assert!(rendered.contains("80.0%"), "total share missing:\n{rendered}");
        assert!(rendered.contains("900"), "{rendered}");
        assert!(rendered.contains("probes attempted"), "{rendered}");
        assert!(rendered.contains("pages hashed"), "{rendered}");
        assert!(rendered.contains("words compared"), "{rendered}");
        assert!(rendered.contains("320"), "{rendered}");
    }

    #[test]
    fn model_table_has_one_row_per_report() {
        use encore_sim::{FaultModelKind, SfiConfig};
        let reports: Vec<CampaignReport> = FaultModelKind::ALL
            .iter()
            .map(|&model| CampaignReport::new(SfiConfig { model, ..Default::default() }))
            .collect();
        let rendered = model_table(&reports).render();
        // Header + separator + one row per model.
        assert_eq!(rendered.lines().count(), 2 + FaultModelKind::ALL.len(), "{rendered}");
        for model in FaultModelKind::ALL {
            assert!(rendered.contains(model.name()), "missing {model} row:\n{rendered}");
        }
    }

    #[test]
    fn latency_table_covers_all_recorded_bins() {
        let table = latency_table(&tiny_report(), Some(100));
        let rendered = table.render();
        // Three distinct latencies at dmax=15 land in three bins.
        assert_eq!(rendered.lines().count(), 2 + 3, "{rendered}");
        assert!(rendered.contains("Eq.6 predicts"));
    }
}

//! Paper-figure tables and the `BENCH_<name>.json` reports.

use histar_sim::SimDuration;

/// One benchmark row: a label, the measured values per system, and the
/// paper's reported values for the same cell (when the paper reports one).
#[derive(Clone, Debug)]
pub struct Row {
    /// Human-readable benchmark name (matches the paper's row label).
    pub name: String,
    /// `(system name, measured simulated time)` pairs.
    pub measured: Vec<(String, SimDuration)>,
    /// `(system name, paper-reported value as printed in the paper)` pairs.
    pub paper: Vec<(String, String)>,
}

impl Row {
    /// Creates a row.
    pub fn new(name: &str) -> Row {
        Row {
            name: name.to_string(),
            measured: Vec::new(),
            paper: Vec::new(),
        }
    }

    /// Adds a measured value.
    pub fn measure(mut self, system: &str, value: SimDuration) -> Row {
        self.measured.push((system.to_string(), value));
        self
    }

    /// Adds the paper's reported value.
    pub fn paper_value(mut self, system: &str, value: &str) -> Row {
        self.paper.push((system.to_string(), value.to_string()));
        self
    }
}

/// A collection of rows printed as an aligned text table.
#[derive(Clone, Debug, Default)]
pub struct Table {
    /// Table title (e.g. "Figure 12: microbenchmarks").
    pub title: String,
    /// The rows.
    pub rows: Vec<Row>,
}

impl Table {
    /// Creates a table.
    pub fn new(title: &str) -> Table {
        Table {
            title: title.to_string(),
            rows: Vec::new(),
        }
    }

    /// Adds a row.
    pub fn push(&mut self, row: Row) {
        self.rows.push(row);
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        for row in &self.rows {
            out.push_str(&format!("{:<44}", row.name));
            for (sys, v) in &row.measured {
                out.push_str(&format!(" | {sys}: {:>12}", v.to_string()));
            }
            if !row.paper.is_empty() {
                out.push_str("  [paper:");
                for (sys, v) in &row.paper {
                    out.push_str(&format!(" {sys}={v}"));
                }
                out.push(']');
            }
            out.push('\n');
        }
        out
    }
}

/// Machine-readable benchmark output: one `BENCH_<name>.json` file per
/// harness run.  CI compares the `baselines` bin's reports byte for byte
/// with `baselines/`.
///
/// Schema: `{"name": ..., "ticks": <total simulated ns>, "metrics":
/// [{"metric": ..., "value": ..., "ticks": ...}, ...]}`.  `value` carries
/// the metric in its natural unit (ns for durations, plain numbers for
/// rates and counts); `ticks` is the simulated-time footprint backing the
/// metric, in nanoseconds.
#[derive(Clone, Debug, Default)]
pub struct BenchJson {
    /// The benchmark's name (`BENCH_<name>.json`).
    pub name: String,
    metrics: Vec<(String, f64, u64)>,
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        if v.fract() == 0.0 && v.abs() < 1e15 {
            format!("{}", v as i64)
        } else {
            format!("{v:.3}")
        }
    } else {
        "0".to_string()
    }
}

impl BenchJson {
    /// Creates an empty report for benchmark `name`.
    pub fn new(name: &str) -> BenchJson {
        BenchJson {
            name: name.to_string(),
            metrics: Vec::new(),
        }
    }

    /// Appends one metric: its value (natural unit) and the simulated-time
    /// footprint in nanoseconds.
    pub fn metric(&mut self, metric: &str, value: f64, ticks: u64) -> &mut BenchJson {
        self.metrics.push((metric.to_string(), value, ticks));
        self
    }

    /// The value of the first metric named `metric`, if any.
    pub fn value(&self, metric: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(m, _, _)| m == metric)
            .map(|&(_, v, _)| v)
    }

    /// Appends one metric per nonzero bucket of `hist`, named
    /// `<prefix>.<bucket label>` — the single emission path for every
    /// histogram any benchmark reports.
    pub fn histogram<const N: usize>(
        &mut self,
        prefix: &str,
        hist: &histar_obs::Histogram<N>,
        ticks: u64,
    ) -> &mut BenchJson {
        for (label, count) in hist.nonzero() {
            self.metric(&format!("{prefix}.{label}"), count as f64, ticks);
        }
        self
    }

    /// Builds a report from a rendered [`Table`]: every `(row, system)`
    /// measurement becomes one metric, valued in nanoseconds.
    pub fn from_table(name: &str, table: &Table) -> BenchJson {
        let mut out = BenchJson::new(name);
        for row in &table.rows {
            for (system, v) in &row.measured {
                let ns = v.as_nanos();
                out.metric(&format!("{} [{system}]", row.name), ns as f64, ns);
            }
        }
        out
    }

    /// Total simulated nanoseconds across all metrics.
    pub fn total_ticks(&self) -> u64 {
        self.metrics.iter().map(|(_, _, t)| *t).sum()
    }

    /// Renders the JSON document.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\n  \"name\": \"{}\",\n  \"ticks\": {},\n  \"metrics\": [\n",
            json_escape(&self.name),
            self.total_ticks()
        ));
        for (i, (metric, value, ticks)) in self.metrics.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"metric\": \"{}\", \"value\": {}, \"ticks\": {}}}{}\n",
                json_escape(metric),
                json_number(*value),
                ticks,
                if i + 1 == self.metrics.len() { "" } else { "," }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes `BENCH_<name>.json` into the current directory (or
    /// `$BENCH_OUT_DIR` when set) and returns its path.  The name is
    /// sanitized for the filesystem (anything outside `[A-Za-z0-9._-]`
    /// becomes `_`), so a name that needs JSON escaping cannot escape the
    /// output directory.
    pub fn write(&self) -> std::io::Result<std::path::PathBuf> {
        let dir = std::env::var_os("BENCH_OUT_DIR")
            .map(std::path::PathBuf::from)
            .unwrap_or_else(|| std::path::PathBuf::from("."));
        let safe: String = self
            .name
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
                    c
                } else {
                    '_'
                }
            })
            .collect();
        let path = dir.join(format!("BENCH_{safe}.json"));
        std::fs::write(&path, self.render())?;
        Ok(path)
    }
}

/// `count` events over `elapsed` simulated time, per simulated second.  An
/// empty interval divides to a non-finite value, which renders as `0`.
pub fn per_sec(count: u64, elapsed: SimDuration) -> f64 {
    count as f64 / elapsed.as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_rows_and_paper_values() {
        let mut t = Table::new("Figure 12");
        t.push(
            Row::new("IPC benchmark, per RTT")
                .measure("HiStar", SimDuration::from_nanos(3110))
                .measure("Linux", SimDuration::from_nanos(4320))
                .paper_value("HiStar", "3.11 usec"),
        );
        let s = t.render();
        assert!(s.contains("Figure 12"));
        assert!(s.contains("IPC benchmark"));
        assert!(s.contains("HiStar"));
        assert!(s.contains("paper"));
    }

    #[test]
    fn bench_json_from_table_and_render() {
        let mut t = Table::new("Figure 12");
        t.push(
            Row::new("IPC benchmark, per RTT")
                .measure("HiStar", SimDuration::from_nanos(3110))
                .measure("Linux", SimDuration::from_nanos(4320)),
        );
        let j = BenchJson::from_table("fig12", &t);
        let s = j.render();
        assert!(s.contains("\"name\": \"fig12\""));
        assert!(s.contains("\"ticks\": 7430"));
        assert!(s.contains("IPC benchmark, per RTT [HiStar]"));
        assert!(s.contains("\"value\": 3110, \"ticks\": 3110"));
        // Valid-ish JSON: balanced braces, no trailing comma.
        assert_eq!(s.matches('{').count(), s.matches('}').count());
        assert!(!s.contains(",\n  ]"));
    }

    #[test]
    fn bench_json_escapes_and_formats() {
        let mut j = BenchJson::new("weird\"name");
        j.metric("rate", 1234.5678, 99);
        let s = j.render();
        assert!(s.contains("weird\\\"name"));
        assert!(s.contains("\"value\": 1234.568"));
    }
}

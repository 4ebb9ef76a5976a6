//! One row / table / artifact writer for the experiment binaries.
//!
//! A [`Row`] is an ordered list of `(key, Cell)`. It renders the one-line
//! JSON object the `results/*.json` artifacts are made of
//! ([`Row::to_json`]) and feeds the text tables the binaries print
//! ([`Cell::text`]). A [`Series`] is one table of a sweep: a header row
//! and points that either completed with a row or failed with a message.

use crate::secs;

/// One value of a [`Row`], with the precision it is reported at.
#[derive(Debug)]
pub enum Cell {
    Int(u64),
    /// `{:.decimals}` in both JSON and tables.
    Fixed(f64, usize),
    /// Virtual seconds: `{:.6}` in JSON, [`secs`] in tables.
    Secs(f64),
    /// A float as `Display` writes it (`0.3`, `1`).
    Num(f64),
    Bool(bool),
    Str(String),
}

impl Cell {
    fn json(&self) -> String {
        match self {
            Cell::Secs(x) => format!("{x:.6}"),
            Cell::Str(s) => format!("\"{}\"", netsim::escape_json(s)),
            other => other.text(),
        }
    }

    /// The cell as a text table shows it.
    pub fn text(&self) -> String {
        match self {
            Cell::Int(n) => n.to_string(),
            Cell::Fixed(x, decimals) => format!("{x:.decimals$}"),
            Cell::Secs(x) => secs(*x),
            Cell::Num(x) => x.to_string(),
            Cell::Bool(b) => b.to_string(),
            Cell::Str(s) => s.clone(),
        }
    }
}

/// Ordered `(key, value)` pairs: one JSON object, one table row.
#[derive(Debug)]
pub struct Row(pub Vec<(&'static str, Cell)>);

impl Row {
    /// `"k": v, "k": v` — the object's fields without its braces.
    fn fields(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(key, cell)| format!("\"{key}\": {}", cell.json()))
            .collect();
        fields.join(", ")
    }

    /// The one-line JSON object.
    pub fn to_json(&self) -> String {
        format!("{{{}}}", self.fields())
    }
}

/// `rows` as the lines of a top-level JSON array's body, one object per
/// line.
pub fn json_lines(rows: &[Row]) -> String {
    let lines: Vec<String> = rows
        .iter()
        .map(|r| format!("    {}", r.to_json()))
        .collect();
    lines.join(",\n")
}

/// One sweep point: where on the axis it sits, and what the run there
/// reported — or the typed error it ended in.
pub struct Point {
    pub axis: Row,
    pub outcome: Result<Row, String>,
}

/// One table of a sweep (an engine, a variant).
pub struct Series {
    /// The table's `--- title ---` line.
    pub title: String,
    /// The series' own fields in the artifact, ahead of its points.
    pub header: Row,
    pub points: Vec<Point>,
}

impl Series {
    /// The table as text: one right-aligned `(title, width)` column per
    /// cell, the axis columns set off from the outcome by `|`.
    pub fn table(&self, columns: &[(&str, usize)]) -> String {
        let n_axis = self.points.first().map_or(0, |p| p.axis.0.len());
        let pad = |texts: Vec<String>, columns: &[(&str, usize)]| {
            let cells: Vec<String> = texts
                .iter()
                .zip(columns)
                .map(|(text, &(_, width))| format!("{text:>width$}"))
                .collect();
            cells.join(" ")
        };
        let line = |axis: Vec<String>, outcome: Result<Vec<String>, String>| {
            let outcome = match outcome {
                Ok(texts) => pad(texts, &columns[n_axis..]),
                Err(e) => format!("failed: {e}"),
            };
            format!("{} | {outcome}\n", pad(axis, &columns[..n_axis]))
        };
        let texts = |row: &Row| row.0.iter().map(|(_, cell)| cell.text()).collect();
        let titles: Vec<String> = columns.iter().map(|c| c.0.to_string()).collect();
        let mut out = format!("\n--- {} ---\n", self.title);
        out += &line(titles[..n_axis].to_vec(), Ok(titles[n_axis..].to_vec()));
        for p in &self.points {
            out += &line(
                texts(&p.axis),
                p.outcome.as_ref().map(texts).map_err(String::clone),
            );
        }
        out
    }

    fn to_json(&self) -> String {
        let points: Vec<String> = self
            .points
            .iter()
            .map(|p| {
                let outcome = match &p.outcome {
                    Ok(row) => row.fields(),
                    Err(e) => Row(vec![("error", Cell::Str(e.clone()))]).fields(),
                };
                format!("      {{{}, {outcome}}}", p.axis.fields())
            })
            .collect();
        format!(
            "    {{{}, \"points\": [\n{}\n    ]}}",
            self.header.fields(),
            points.join(",\n")
        )
    }
}

/// The artifact of a sweep on the two-node laptop cluster.
pub fn series_json(experiment: &str, series: &[Series]) -> String {
    let series: Vec<String> = series.iter().map(Series::to_json).collect();
    format!(
        "{{\n  \"experiment\": \"{experiment}\",\n  \"machine\": \"laptop x2 nodes\",\n  \
         \"series\": [\n{}\n  ]\n}}\n",
        series.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use Cell::*;

    #[test]
    fn memory_point_renders_as_committed() {
        // results/memory.json, spark at mem_frac 1.00: `{:.2}` frac, a
        // negative overhead.
        let series = Series {
            title: "spark / evict+lineage-recompute+spill (clean 1.21, footprint 12004 B)".into(),
            header: Row(vec![
                ("engine", Str("spark".into())),
                ("degradation", Str("evict+lineage-recompute+spill".into())),
                ("clean_makespan_s", Secs(1.210379)),
                ("footprint_bytes", Int(12004)),
            ]),
            points: vec![Point {
                axis: Row(vec![("mem_frac", Fixed(1.0, 2)), ("cap_bytes", Int(12004))]),
                outcome: Ok(Row(vec![
                    ("makespan_s", Secs(1.210249)),
                    ("overhead_s", Secs(1.210249 - 1.210379)),
                    ("bytes_spilled", Int(0)),
                    ("bytes_evicted", Int(0)),
                    ("recomputed_partitions", Int(0)),
                    ("oom_kills", Int(0)),
                    ("mem_high_water", Int(12004)),
                ])),
            }],
        };
        assert_eq!(
            series_json("memory-pressure sweep", &[series]),
            concat!(
                "{\n  \"experiment\": \"memory-pressure sweep\",\n",
                "  \"machine\": \"laptop x2 nodes\",\n  \"series\": [\n",
                "    {\"engine\": \"spark\", \"degradation\": \"evict+lineage-recompute+spill\", ",
                "\"clean_makespan_s\": 1.210379, \"footprint_bytes\": 12004, \"points\": [\n",
                "      {\"mem_frac\": 1.00, \"cap_bytes\": 12004, \"makespan_s\": 1.210249, ",
                "\"overhead_s\": -0.000130, \"bytes_spilled\": 0, \"bytes_evicted\": 0, ",
                "\"recomputed_partitions\": 0, \"oom_kills\": 0, \"mem_high_water\": 12004}\n",
                "    ]}\n  ]\n}\n"
            )
        );
    }

    #[test]
    fn recovery_point_renders_as_committed() {
        let point = Point {
            axis: Row(vec![
                ("death_frac", Fixed(0.15, 2)),
                ("t_kill_s", Secs(1.031544)),
            ]),
            outcome: Ok(Row(vec![
                ("makespan_s", Secs(1.584355)),
                ("overhead_s", Secs(0.374060)),
                ("recovery_s", Secs(2.808400)),
                ("retries", Int(8)),
                ("recomputed_partitions", Int(0)),
                ("lost_time_s", Secs(0.200946)),
            ])),
        };
        let series = Series {
            title: String::new(),
            header: Row(vec![
                ("engine", Str("spark".into())),
                ("variant", Str("lineage".into())),
                ("clean_makespan_s", Secs(1.210295)),
            ]),
            points: vec![point],
        };
        assert_eq!(
            series.to_json(),
            concat!(
                "    {\"engine\": \"spark\", \"variant\": \"lineage\", ",
                "\"clean_makespan_s\": 1.210295, \"points\": [\n",
                "      {\"death_frac\": 0.15, \"t_kill_s\": 1.031544, \"makespan_s\": 1.584355, ",
                "\"overhead_s\": 0.374060, \"recovery_s\": 2.808400, \"retries\": 8, ",
                "\"recomputed_partitions\": 0, \"lost_time_s\": 0.200946}\n    ]}"
            )
        );
    }

    #[test]
    fn partition_stream_and_chaos_rows_render_as_committed() {
        // results/partition.json: bare `Display` floats, Debug engine name.
        let partition = Row(vec![
            ("engine", Str(format!("{:?}", taskframe::Engine::Spark))),
            ("duration_s", Num(0.3)),
            ("timeout_s", Num(1.0)),
            ("false_positive", Bool(false)),
            ("zombie_attempts", Int(0)),
            ("zombie_time_s", Secs(0.0)),
            ("fenced_results", Int(0)),
            ("reschedules", Int(0)),
            ("makespan_s", Secs(1.355551)),
            ("clean_makespan_s", Secs(1.109077)),
        ]);
        // results/stream.json: `{:.4}` frame rates.
        let stream = Row(vec![
            ("engine", Str("Spark".into())),
            ("interval_s", Num(0.8)),
            ("offered_fps", Fixed(1.25, 4)),
            ("achieved_fps", Fixed(1.28224, 4)),
            ("staleness_mean_s", Secs(0.712078)),
            ("staleness_max_s", Secs(1.008492)),
            ("backpressure_pauses", Int(0)),
        ]);
        // chaos_sweep --metrics-out: one engine's memory-battery line.
        let chaos = Row(vec![
            ("engine", Str("mpi".into())),
            ("fault_free_footprint_bytes", Int(65536)),
            ("runs", Int(71)),
            ("typed_errors", Int(29)),
            ("bytes_spilled", Int(0)),
            ("bytes_evicted", Int(0)),
            ("recomputed_partitions", Int(0)),
            ("oom_kills", Int(0)),
            ("mem_high_water_max", Int(0)),
        ]);
        assert_eq!(
            json_lines(&[partition, stream, chaos]),
            concat!(
                "    {\"engine\": \"Spark\", \"duration_s\": 0.3, \"timeout_s\": 1, ",
                "\"false_positive\": false, \"zombie_attempts\": 0, \"zombie_time_s\": 0.000000, ",
                "\"fenced_results\": 0, \"reschedules\": 0, \"makespan_s\": 1.355551, ",
                "\"clean_makespan_s\": 1.109077},\n",
                "    {\"engine\": \"Spark\", \"interval_s\": 0.8, \"offered_fps\": 1.2500, ",
                "\"achieved_fps\": 1.2822, \"staleness_mean_s\": 0.712078, ",
                "\"staleness_max_s\": 1.008492, \"backpressure_pauses\": 0},\n",
                "    {\"engine\": \"mpi\", \"fault_free_footprint_bytes\": 65536, \"runs\": 71, ",
                "\"typed_errors\": 29, \"bytes_spilled\": 0, \"bytes_evicted\": 0, ",
                "\"recomputed_partitions\": 0, \"oom_kills\": 0, \"mem_high_water_max\": 0}"
            )
        );
    }

    fn failed_series(message: &str) -> Series {
        Series {
            title: "mpi / chunk-or-fail (clean 0.5012, footprint 220636 B)".into(),
            header: Row(vec![("engine", Str("mpi".into()))]),
            points: vec![
                Point {
                    axis: Row(vec![
                        ("mem_frac", Fixed(2.0, 2)),
                        ("cap_bytes", Int(441272)),
                    ]),
                    outcome: Ok(Row(vec![
                        ("makespan_s", Secs(0.50128)),
                        ("oom_kills", Int(0)),
                    ])),
                },
                Point {
                    axis: Row(vec![
                        ("mem_frac", Fixed(1.6, 2)),
                        ("cap_bytes", Int(353017)),
                    ]),
                    outcome: Err(message.into()),
                },
            ],
        }
    }

    #[test]
    fn failed_point_escapes_its_message() {
        // A newline, quotes, a tab and a control byte: what the bins'
        // own two-character escaper let through into the artifact.
        let json = failed_series("a\n\"b\"\t\u{1}").to_json();
        assert_eq!(
            json.lines().nth(2).unwrap(),
            "      {\"mem_frac\": 1.60, \"cap_bytes\": 353017, \
             \"error\": \"a\\n\\\"b\\\"\\t\\u0001\"}"
        );
    }

    #[test]
    fn table_prints_failed_in_the_rows_place() {
        let columns = [("frac", 6), ("cap", 12), ("makespan", 10), ("oom", 4)];
        assert_eq!(
            failed_series("MemoryExhausted { node: 0 }").table(&columns),
            "\n--- mpi / chunk-or-fail (clean 0.5012, footprint 220636 B) ---\n  \
             frac          cap |   makespan  oom\n  \
             2.00       441272 |     0.5013    0\n  \
             1.60       353017 | failed: MemoryExhausted { node: 0 }\n"
        );
    }
}

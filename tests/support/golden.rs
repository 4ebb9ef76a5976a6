//! What the golden-hash tests share: `tests/golden_collectives.rs` and
//! `crates/mdtaskd/tests/golden_reports.rs` include this file by `#[path]`.

use netsim::SimReport;

pub fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Lift the trace out of `sim` and append it to `out` event by event beside
/// its resolved phase/label strings: `Trace`'s own `Debug` walks the
/// interner's `HashMap`, whose order changes from process to process.
pub fn render_trace(sim: &mut SimReport, out: &mut String) {
    let Some(trace) = sim.trace.take() else {
        out.push_str("untraced\n");
        return;
    };
    for e in &trace.events {
        out.push_str(&format!(
            "{e:?}|{}|{}\n",
            trace.phase_of(e),
            trace.label_of(e)
        ));
    }
}

/// Compare against the frozen constants; on a mismatch print what was
/// computed in the form the constants are written in.
pub fn assert_frozen(what: &str, got: &[u64], want: &[u64]) {
    if got != want {
        let rows: Vec<String> = got
            .chunks(4)
            .map(|row| {
                let cells: Vec<String> = row
                    .iter()
                    .map(|h| {
                        let s = format!("{h:016x}");
                        format!("0x{}_{}_{}_{}", &s[0..4], &s[4..8], &s[8..12], &s[12..16])
                    })
                    .collect();
                format!("    {},", cells.join(", "))
            })
            .collect();
        panic!(
            "{what}: a frozen hash moved; computed:\n{}",
            rows.join("\n")
        );
    }
}

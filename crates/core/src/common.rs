//! Serial reference for the RMSD time series, the paper's other "commonly
//! used algorithm" (§2). It is embarrassingly parallel over frames; the
//! parallel form is [`rmsd_analysis`](crate::rmsd_analysis) on any engine,
//! which tests compare against this loop.

use linalg::{rmsd_superposed, Frame};
use mdsim::Trajectory;

/// Which frame metric an RMSD series uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RmsdMode {
    /// Plain positional RMSD (no superposition) — Algorithm 1's `dRMS`.
    Plain,
    /// Optimal-superposition RMSD (QCP), as MDAnalysis computes.
    Superposed,
}

fn metric(mode: RmsdMode) -> fn(&Frame, &Frame) -> f64 {
    match mode {
        RmsdMode::Plain => linalg::frame_rmsd,
        RmsdMode::Superposed => rmsd_superposed,
    }
}

/// Serial RMSD of every frame against a reference frame ("RMSD is used to
/// identify the deviation of atom positions between frames", §2).
pub fn rmsd_series_serial(traj: &Trajectory, reference: &Frame, mode: RmsdMode) -> Vec<f64> {
    let m = metric(mode);
    traj.frames.iter().map(|f| m(f, reference)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::RunConfig;
    use crate::{rmsd_analysis, AtomSelection};
    use mdsim::ChainSpec;
    use netsim::{laptop, Cluster};
    use std::sync::Arc;
    use taskframe::Engine;

    fn traj() -> Trajectory {
        let spec = ChainSpec {
            n_atoms: 30,
            n_frames: 24,
            stride: 1,
            ..ChainSpec::default()
        };
        mdsim::chain::generate(&spec, 8)
    }

    #[test]
    fn serial_series_starts_at_zero() {
        let t = traj();
        for mode in [RmsdMode::Plain, RmsdMode::Superposed] {
            let series = rmsd_series_serial(&t, &t.frames[0], mode);
            assert_eq!(series.len(), 24);
            assert!(series[0] < 1e-5, "first frame vs itself ({mode:?})");
            assert!(series[5] > 0.0, "dynamics must move atoms");
        }
    }

    #[test]
    fn superposed_never_exceeds_plain() {
        let t = traj();
        let plain = rmsd_series_serial(&t, &t.frames[0], RmsdMode::Plain);
        let sup = rmsd_series_serial(&t, &t.frames[0], RmsdMode::Superposed);
        for (p, s) in plain.iter().zip(&sup) {
            assert!(s <= &(p + 1e-5), "superposed {s} > plain {p}");
        }
    }

    #[test]
    fn engines_match_serial() {
        let t = Arc::new(traj());
        let reference = rmsd_series_serial(&t, &t.frames[0], RmsdMode::Superposed);
        for engine in Engine::ALL {
            let rc = RunConfig::new(Cluster::new(laptop(), 2), engine);
            let out = rc
                .run_analysis(rmsd_analysis(Arc::clone(&t), AtomSelection::All, 0, 4))
                .unwrap_or_else(|e| panic!("{engine:?} runs fault-free: {e}"));
            assert_eq!(out.values, reference, "{engine:?}");
        }
    }
}

//! The conceptual decision framework of §4.4: Table 1 (framework
//! properties) and Table 3 (criteria ranking), as queryable data, plus the
//! recommendation logic the paper's discussion implies.

use crate::Engine;

/// Support level, Table 3's `-` / `o` / `+` / `++` scale.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Support {
    /// `-`: unsupported or low performance.
    Unsupported,
    /// `o`: minor support.
    Minor,
    /// `+`: supported.
    Supported,
    /// `++`: major support.
    Major,
}

impl Support {
    pub fn symbol(self) -> &'static str {
        match self {
            Support::Unsupported => "-",
            Support::Minor => "o",
            Support::Supported => "+",
            Support::Major => "++",
        }
    }
}

/// Table 3's criteria.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Criterion {
    // Task management
    LowLatency,
    Throughput,
    MpiHpcTasks,
    TaskApi,
    LargeNumberOfTasks,
    // Application characteristics
    PythonNativeCode,
    Java,
    HigherLevelAbstraction,
    Shuffle,
    Broadcast,
    Caching,
}

impl Criterion {
    pub const ALL: [Criterion; 11] = [
        Criterion::LowLatency,
        Criterion::Throughput,
        Criterion::MpiHpcTasks,
        Criterion::TaskApi,
        Criterion::LargeNumberOfTasks,
        Criterion::PythonNativeCode,
        Criterion::Java,
        Criterion::HigherLevelAbstraction,
        Criterion::Shuffle,
        Criterion::Broadcast,
        Criterion::Caching,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Criterion::LowLatency => "Low Latency",
            Criterion::Throughput => "Throughput",
            Criterion::MpiHpcTasks => "MPI/HPC Tasks",
            Criterion::TaskApi => "Task API",
            Criterion::LargeNumberOfTasks => "Large Number of Tasks",
            Criterion::PythonNativeCode => "Python/native Code",
            Criterion::Java => "Java",
            Criterion::HigherLevelAbstraction => "Higher-Level Abstraction",
            Criterion::Shuffle => "Shuffle",
            Criterion::Broadcast => "Broadcast",
            Criterion::Caching => "Caching",
        }
    }

    /// Is this a task-management criterion (upper half of Table 3)?
    pub fn is_task_management(self) -> bool {
        matches!(
            self,
            Criterion::LowLatency
                | Criterion::Throughput
                | Criterion::MpiHpcTasks
                | Criterion::TaskApi
                | Criterion::LargeNumberOfTasks
        )
    }
}

/// The name the paper's tables and text give each framework
/// ([`Engine::label`] is the short CLI/JSON key).
pub fn paper_name(engine: Engine) -> &'static str {
    match engine {
        Engine::Spark => "Spark",
        Engine::Dask => "Dask",
        Engine::Pilot => "RADICAL-Pilot",
        Engine::Mpi => "MPI4py",
    }
}

/// Table 3, verbatim. (`RADICAL-Pilot`'s "Large Number of Tasks" is `--`
/// in the paper; we map it to `Unsupported`.)
pub fn rank(engine: Engine, criterion: Criterion) -> Support {
    use Criterion::*;
    use Engine::*;
    use Support::*;
    match (engine, criterion) {
        (Pilot, LowLatency) => Unsupported,
        (Spark, LowLatency) => Minor,
        (Dask, LowLatency) => Supported,
        (Pilot, Throughput) => Unsupported,
        (Spark, Throughput) => Supported,
        (Dask, Throughput) => Major,
        (Pilot, MpiHpcTasks) => Supported,
        (Spark, MpiHpcTasks) => Minor,
        (Dask, MpiHpcTasks) => Minor,
        (Pilot, TaskApi) => Supported,
        (Spark, TaskApi) => Minor,
        (Dask, TaskApi) => Major,
        (Pilot, LargeNumberOfTasks) => Unsupported,
        (Spark, LargeNumberOfTasks) => Major,
        (Dask, LargeNumberOfTasks) => Major,
        (Pilot, PythonNativeCode) => Major,
        (Spark, PythonNativeCode) => Minor,
        (Dask, PythonNativeCode) => Supported,
        (Pilot, Java) => Minor,
        (Spark, Java) => Major,
        (Dask, Java) => Minor,
        (Pilot, HigherLevelAbstraction) => Unsupported,
        (Spark, HigherLevelAbstraction) => Major,
        (Dask, HigherLevelAbstraction) => Supported,
        (Pilot, Shuffle) => Unsupported,
        (Spark, Shuffle) => Major,
        (Dask, Shuffle) => Supported,
        (Pilot, Broadcast) => Unsupported,
        (Spark, Broadcast) => Major,
        (Dask, Broadcast) => Supported,
        (Pilot, Caching) => Unsupported,
        (Spark, Caching) => Major,
        (Dask, Caching) => Minor,
        // MPI is the baseline, not ranked by Table 3.
        (Mpi, _) => Minor,
    }
}

/// A workload description for the recommendation logic (§4.4.1).
#[derive(Clone, Debug, Default)]
pub struct Workload {
    /// Tasks are coarse-grained and independent (e.g. PSA).
    pub embarrassingly_parallel: bool,
    /// Requires reduce/shuffle coupling (e.g. Leaflet Finder 3/4).
    pub needs_shuffle: bool,
    /// Needs to run MPI executables alongside the analytics.
    pub mixes_mpi_tasks: bool,
    /// Fine-grained: many short tasks.
    pub many_short_tasks: bool,
    /// Iterative passes over a cached working set.
    pub iterative: bool,
}

/// The paper's qualitative guidance, §4.4.1–4.4.2, as a function.
pub fn recommend(w: &Workload) -> Engine {
    if w.mixes_mpi_tasks {
        // "Executing MPI and Spark applications alongside … makes
        // RADICAL-Pilot particularly suitable when different programming
        // models need to be combined."
        Engine::Pilot
    } else if w.iterative || w.needs_shuffle {
        // "Spark needs to be particularly considered for shuffle-intensive
        // applications. Its in-memory caching … suited for iterative
        // algorithms."
        Engine::Spark
    } else if w.many_short_tasks {
        // "Dask provides a highly flexible, low-latency task management."
        Engine::Dask
    } else if w.embarrassingly_parallel {
        // "The choice of framework does not significantly influence
        // performance … programmability and integrate-ability become more
        // important" — Dask's native-Python integration wins.
        Engine::Dask
    } else {
        Engine::Mpi
    }
}

/// Table 1 rows: descriptive properties per framework.
pub fn framework_properties(engine: Engine) -> Vec<(&'static str, &'static str)> {
    match engine {
        Engine::Pilot => vec![
            ("Languages", "Python"),
            ("Task Abstraction", "Task (Compute-Unit)"),
            ("Functional Abstraction", "-"),
            ("Higher-Level Abstractions", "EnTK"),
            ("Resource Management", "Pilot-Job"),
            ("Scheduler", "Individual Tasks"),
            ("Shuffle", "-"),
            ("Limitations", "no shuffle, filesystem-based communication"),
        ],
        Engine::Spark => vec![
            ("Languages", "Java, Scala, Python, R"),
            ("Task Abstraction", "Map-Task"),
            ("Functional Abstraction", "RDD API"),
            ("Higher-Level Abstractions", "Dataframe, ML Pipeline, MLlib"),
            ("Resource Management", "Spark Execution Engines"),
            ("Scheduler", "Stage-oriented DAG"),
            ("Shuffle", "hash/sort-based shuffle"),
            (
                "Limitations",
                "high overheads for Python tasks (serialization)",
            ),
        ],
        Engine::Dask => vec![
            ("Languages", "Python"),
            ("Task Abstraction", "Delayed"),
            ("Functional Abstraction", "Bag"),
            (
                "Higher-Level Abstractions",
                "Dataframe, Arrays for block computations",
            ),
            ("Resource Management", "Dask Distributed Scheduler"),
            ("Scheduler", "DAG"),
            ("Shuffle", "hash/sort-based shuffle"),
            (
                "Limitations",
                "Dask Array can not deal with dynamic output shapes",
            ),
        ],
        Engine::Mpi => vec![
            ("Languages", "C, C++, Fortran, Python (mpi4py)"),
            ("Task Abstraction", "Process (rank)"),
            ("Functional Abstraction", "-"),
            ("Higher-Level Abstractions", "-"),
            ("Resource Management", "mpirun / cluster scheduler"),
            ("Scheduler", "static SPMD"),
            ("Shuffle", "collectives (alltoall)"),
            ("Limitations", "explicit communication and synchronization"),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_headline_orderings() {
        // Throughput: Dask > Spark > RP (Fig. 2/3).
        assert!(
            rank(Engine::Dask, Criterion::Throughput) > rank(Engine::Spark, Criterion::Throughput)
        );
        assert!(
            rank(Engine::Spark, Criterion::Throughput) > rank(Engine::Pilot, Criterion::Throughput)
        );
        // Shuffle/broadcast/caching: Spark strongest (§4.4.2).
        for c in [Criterion::Shuffle, Criterion::Broadcast, Criterion::Caching] {
            assert_eq!(rank(Engine::Spark, c), Support::Major);
            assert!(rank(Engine::Dask, c) < Support::Major);
            assert_eq!(rank(Engine::Pilot, c), Support::Unsupported);
        }
        // RP leads on MPI/HPC task support.
        assert!(
            rank(Engine::Pilot, Criterion::MpiHpcTasks)
                > rank(Engine::Spark, Criterion::MpiHpcTasks)
        );
    }

    #[test]
    fn symbols_roundtrip() {
        assert_eq!(Support::Major.symbol(), "++");
        assert_eq!(Support::Unsupported.symbol(), "-");
    }

    #[test]
    fn recommendations_follow_the_paper() {
        assert_eq!(
            recommend(&Workload {
                mixes_mpi_tasks: true,
                ..Default::default()
            }),
            Engine::Pilot
        );
        assert_eq!(
            recommend(&Workload {
                needs_shuffle: true,
                ..Default::default()
            }),
            Engine::Spark
        );
        assert_eq!(
            recommend(&Workload {
                iterative: true,
                ..Default::default()
            }),
            Engine::Spark
        );
        assert_eq!(
            recommend(&Workload {
                many_short_tasks: true,
                ..Default::default()
            }),
            Engine::Dask
        );
        assert_eq!(
            recommend(&Workload {
                embarrassingly_parallel: true,
                ..Default::default()
            }),
            Engine::Dask
        );
        assert_eq!(recommend(&Workload::default()), Engine::Mpi);
    }

    #[test]
    fn paper_names_sit_beside_unchanged_short_labels() {
        let names = Engine::ALL.map(|e| (paper_name(e), e.label()));
        assert_eq!(
            names,
            [
                ("Spark", "spark"),
                ("Dask", "dask"),
                ("RADICAL-Pilot", "pilot"),
                ("MPI4py", "mpi"),
            ]
        );
    }

    #[test]
    fn properties_cover_all_engines() {
        for e in Engine::ALL {
            let props = framework_properties(e);
            assert!(props.len() >= 8, "{e:?}");
            assert_eq!(props[0].0, "Languages");
        }
    }

    #[test]
    fn criteria_split() {
        let tm = Criterion::ALL
            .iter()
            .filter(|c| c.is_task_management())
            .count();
        assert_eq!(tm, 5);
        assert_eq!(Criterion::ALL.len() - tm, 6);
    }
}

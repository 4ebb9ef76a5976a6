//! Per-task file staging — the data-exchange path of pilot-job systems.
//!
//! RADICAL-Pilot has "no shuffle; filesystem-based communication"
//! (Table 1): tasks communicate exclusively by writing output files that
//! downstream tasks (or the client) read back. `StagingArea` provides that
//! pattern: a directory of numbered binary blobs.

use crate::Result;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A directory used for task input/output staging.
#[derive(Debug)]
pub struct StagingArea {
    root: PathBuf,
}

impl StagingArea {
    /// Create (or reuse) a staging directory.
    pub fn new(root: impl Into<PathBuf>) -> Result<Self> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(StagingArea { root })
    }

    /// A unique staging area under the system temp dir.
    pub fn temp(tag: &str) -> Result<Self> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let id = NEXT.fetch_add(1, Ordering::Relaxed);
        let root =
            std::env::temp_dir().join(format!("mdtask-stage-{tag}-{}-{id}", std::process::id()));
        Self::new(root)
    }

    /// Directory root.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Path for task `task_id`'s file named `name`.
    fn task_path(&self, task_id: usize, name: &str) -> PathBuf {
        self.root.join(format!("task-{task_id:06}-{name}.bin"))
    }

    /// Stage a blob in for a task (write it to the shared filesystem).
    pub fn stage_in(&self, task_id: usize, name: &str, data: &[u8]) -> Result<PathBuf> {
        let path = self.task_path(task_id, name);
        std::fs::write(&path, data)?;
        Ok(path)
    }

    /// Read a task's staged blob back.
    pub fn stage_out(&self, task_id: usize, name: &str) -> Result<Vec<u8>> {
        Ok(std::fs::read(self.task_path(task_id, name))?)
    }

    /// Remove the staging directory and its contents.
    pub fn cleanup(self) -> Result<()> {
        std::fs::remove_dir_all(&self.root)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_roundtrip() {
        let area = StagingArea::temp("roundtrip").unwrap();
        area.stage_in(0, "input", b"hello").unwrap();
        area.stage_in(1, "input", b"world!").unwrap();
        assert_eq!(area.stage_out(0, "input").unwrap(), b"hello");
        assert_eq!(area.stage_out(1, "input").unwrap(), b"world!");
        area.cleanup().unwrap();
    }

    #[test]
    fn task_paths_are_distinct() {
        let area = StagingArea::temp("paths").unwrap();
        assert_ne!(area.task_path(0, "a"), area.task_path(0, "b"));
        assert_ne!(area.task_path(0, "a"), area.task_path(1, "a"));
        area.cleanup().unwrap();
    }

    #[test]
    fn missing_blob_is_an_error() {
        let area = StagingArea::temp("missing").unwrap();
        assert!(area.stage_out(42, "nothing").is_err());
        area.cleanup().unwrap();
    }

    #[test]
    fn temp_areas_do_not_collide() {
        let a = StagingArea::temp("same").unwrap();
        let b = StagingArea::temp("same").unwrap();
        assert_ne!(a.root(), b.root());
        a.cleanup().unwrap();
        b.cleanup().unwrap();
    }
}

//! Correctness gates, counted per attempted check: a measured run is
//! `correct` only when none failed.

#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed check, for the human reading the log.
    pub failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, describe: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(describe());
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

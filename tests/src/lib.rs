//! Integration-test helpers shared by the workspace-level test suite.
//!
//! The actual tests live under `tests/tests/`; this library only hosts
//! small utilities they share.

/// Asserts that a [`Result`]-like verdict is positive, printing the full
/// diagnostic on failure.
pub fn expect_holds<T: std::fmt::Debug, E: std::fmt::Display>(r: Result<T, E>) -> T {
    match r {
        Ok(v) => v,
        Err(e) => panic!("expected the property to hold, but: {e}"),
    }
}

/// A `Write` sink shared with the test, so a recorder's output can be
/// read back without touching the filesystem.
#[derive(Clone)]
pub struct SharedBuf(pub std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

impl std::io::Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

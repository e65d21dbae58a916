//! Contained panics for simulated process death.
//!
//! A simulated rank "dies" by panicking (an injected `ESIMCRASH`, an
//! unexpected bug in workflow code, a poisoned input). The surrounding run
//! must contain that death — catch it, label it, keep the other ranks
//! going — without spraying the default panic hook's backtrace over the
//! terminal for a failure the simulation *planned*.
//!
//! [`catch_quiet`] runs a closure under `std::panic::catch_unwind` with a
//! thread-local "expected panic" flag raised. A process-wide hook (installed
//! once, wrapping whatever hook was there before) stays silent while the
//! flag is up and delegates to the previous hook otherwise, so genuine
//! panics elsewhere in the process still report normally.

use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;

thread_local! {
    static EXPECTED: Cell<bool> = const { Cell::new(false) };
}

static INSTALL_HOOK: Once = Once::new();

/// Turn a panic payload into a human-readable cause string.
pub(crate) fn payload_to_string(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run `f`, catching any panic it raises. Returns the closure's value, or
/// the panic's payload rendered as a string. The default panic hook is
/// suppressed for panics raised under this call (on this thread only);
/// panics on other threads keep their normal reporting.
pub fn catch_quiet<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    INSTALL_HOOK.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !EXPECTED.with(Cell::get) {
                prev(info);
            }
        }));
    });
    EXPECTED.with(|e| e.set(true));
    let result = panic::catch_unwind(AssertUnwindSafe(f));
    EXPECTED.with(|e| e.set(false));
    result.map_err(|payload| payload_to_string(payload.as_ref()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_passes_through() {
        assert_eq!(catch_quiet(|| 41 + 1), Ok(42));
    }

    #[test]
    fn str_panic_is_caught_with_message() {
        assert_eq!(catch_quiet(|| panic!("boom")), Err::<(), _>("boom".into()));
    }

    #[test]
    fn formatted_panic_keeps_its_message() {
        let r: Result<(), String> = catch_quiet(|| panic!("rank {} died", 7));
        assert_eq!(r, Err("rank 7 died".into()));
    }

    #[test]
    fn flag_resets_after_catch() {
        let _ = catch_quiet(|| panic!("x"));
        // A second quiet catch still works (flag was reset, hook persists).
        assert_eq!(catch_quiet(|| 1), Ok(1));
    }

    #[test]
    fn non_string_payload_is_labeled() {
        let r: Result<(), String> = catch_quiet(|| std::panic::panic_any(7usize));
        assert_eq!(r, Err("non-string panic payload".into()));
    }
}

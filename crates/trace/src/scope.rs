//! Who owns a request's telemetry, and how nested owners compose.
//!
//! One rule for every sink ([`Collector`](crate::Collector),
//! [`Ledger`](crate::ledger::Ledger)): scopes are per-thread, they
//! nest, and they merge up on finish. [`Scope::install`] shadows
//! whatever the thread had; ending the scope — [`Scope::finish`] or a
//! drop, including an unwinding one — restores it and hands the inner
//! sink's recordings to the enclosing one ([`Sink::hand_up`]). Nothing
//! here is process-global: the only question the API answers is "is one
//! installed *on this thread*", so a neighbouring thread can neither
//! enable nor starve this one.

use std::cell::{Cell, RefCell};
use std::marker::PhantomData;
use std::thread::LocalKey;

/// A telemetry sink that [`Scope`] can install on the current thread.
pub trait Sink: Sized + 'static {
    /// This sink type's per-thread stack of installed values; the top
    /// is current, the ones below are shadowed.
    #[doc(hidden)]
    fn stack() -> &'static LocalKey<RefCell<Vec<Self>>>;

    /// "Installed on this thread", kept apart from the stack as a
    /// `const`-initialised `Cell`: no lazy initialisation and no
    /// destructor, so the disabled path of a site is one plain load.
    #[doc(hidden)]
    fn flag() -> &'static LocalKey<Cell<bool>>;

    /// Called when a nested scope ends: folds this sink's recordings
    /// into the sink it shadowed. The default keeps them apart.
    fn hand_up(&self, _enclosing: &mut Self) {}
}

/// Runs `f` on the current thread's innermost `T`, if one is installed.
pub(crate) fn with<T: Sink, R>(f: impl FnOnce(&mut T) -> R) -> Option<R> {
    T::stack().with(|s| s.borrow_mut().last_mut().map(f))
}

/// An installed sink: ends on [`finish`](Scope::finish) or drop, even
/// when the instrumented code panics (daemon workers catch panics and
/// must not leak a request's sink into the next request).
pub struct Scope<T: Sink> {
    depth: usize,
    /// The stack lives on the installing thread; so must the guard.
    _thread: PhantomData<*const T>,
}

impl<T: Sink> Scope<T> {
    /// Installs `value` on the current thread, shadowing any enclosing
    /// sink of the same type until this scope ends.
    pub fn install(value: T) -> Self {
        let depth = T::stack().with(|s| {
            let mut s = s.borrow_mut();
            s.push(value);
            s.len() - 1
        });
        T::flag().set(true);
        Scope {
            depth,
            _thread: PhantomData,
        }
    }

    /// Ends the scope: restores the enclosing sink, hands this one's
    /// recordings up to it, and returns this one.
    pub fn finish(self) -> Option<T> {
        self.end() // the drop that follows finds nothing left to end
    }

    fn end(&self) -> Option<T> {
        T::stack().with(|s| {
            let mut s = s.borrow_mut();
            // Ends leaked inner scopes with it; `None` when this scope
            // already ended, by itself or with an enclosing one.
            let from = self.depth.min(s.len());
            let value = s.drain(from..).next()?;
            if let Some(enclosing) = s.last_mut() {
                value.hand_up(enclosing);
            }
            T::flag().set(!s.is_empty());
            Some(value)
        })
    }
}

impl<T: Sink> Drop for Scope<T> {
    fn drop(&mut self) {
        self.end();
    }
}

/// The cache lines the next deliveries will touch, named to the CPU ahead
/// of time. Before each delivery the simulator hands one to the actor of
/// the event queued next ([`Actor::prefetch`](crate::Actor::prefetch)),
/// which names its lines by address.
///
/// A hint changes nothing a run can observe: it reads no memory the
/// program sees, takes no lock, allocates nothing and never faults, so
/// any address may be named, one past a buffer or dangling included. On
/// x86-64 each line is a `prefetcht0`; elsewhere naming a line does
/// nothing.
#[derive(Debug)]
pub struct Prefetch(());

impl Prefetch {
    /// The handle the simulator lends an actor; only the simulator makes one.
    pub(crate) fn new() -> Self {
        Prefetch(())
    }

    /// Asks the CPU to bring the cache line holding `p` into every level
    /// of cache.
    #[inline(always)]
    pub fn line<T: ?Sized>(&mut self, p: *const T) {
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            // SAFETY: `prefetcht0` is a hint. It neither faults nor
            // changes memory, whatever the address, and `sse` (which the
            // intrinsic needs) is part of every x86-64 CPU.
            #[allow(unsafe_code)]
            unsafe {
                _mm_prefetch::<_MM_HINT_T0>(p.cast::<i8>())
            };
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = p;
    }
}

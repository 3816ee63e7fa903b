/// Virtual time in microseconds since the start of the run.
pub type Time = u64;

/// Bit of [`Key::to`] that marks a timer key (actor indices stay below it).
pub(crate) const TIMER: u32 = 1 << 31;

/// What the simulator's queue orders and moves, in its FIFO run, its
/// calendar or its heap: 24 bytes, `Copy`. The payload waits in a
/// [`Slab`] slot, so a sift, a sort or a copy never touches it. Ordering
/// (and equality) consider only `(at, seq)`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Key {
    pub at: Time,
    /// Tie-breaker: events scheduled earlier are delivered first at equal
    /// times, which keeps runs deterministic.
    pub seq: u64,
    /// Destination actor, with [`TIMER`] set on a timer key.
    pub to: u32,
    /// The slab slot holding the payload.
    pub slot: u32,
}

impl Key {
    /// The destination actor's index.
    #[inline]
    pub fn actor(&self) -> usize {
        (self.to & !TIMER) as usize
    }

    /// `(at, seq)` as one integer, so that a comparison in a heap sift is
    /// a subtract-with-borrow rather than a branch.
    #[inline]
    fn rank(&self) -> u128 {
        (self.at as u128) << 64 | self.seq as u128
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.rank() == other.rank()
    }
}

impl Eq for Key {}

impl Ord for Key {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse order: BinaryHeap is a max-heap, we need earliest first.
        other.rank().cmp(&self.rank())
    }
}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// One slab slot: a queued payload, or free.
#[derive(Debug)]
pub(crate) enum Slot<M, T> {
    /// On its page's free list; links to the next free slot of the page
    /// ([`NIL`] ends it).
    Free(u32),
    /// A message in flight, and its sender.
    Msg(u32, M),
    /// An armed timer of the key's actor.
    Timer(T),
    /// A timer canceled or superseded while its key is still queued. The
    /// slot is freed when that key pops, never before: no key outlives
    /// its slot.
    Canceled,
}

/// Slots per page.
const PAGE: usize = 256;

/// End of a free list.
const NIL: u32 = u32::MAX;

/// [`PAGE`] slots, a LIFO list of the free ones, and how many are used.
#[derive(Debug)]
struct Page<M, T> {
    slots: Box<[Slot<M, T>]>,
    free: u32,
    used: u32,
}

/// The payloads of queued events, in fixed pages of [`PAGE`] slots.
///
/// A page is never reallocated, so the slab grows without copying what
/// it holds. A slot is taken from the lowest page with one free, last
/// freed first: a send usually reuses the slot its delivery just freed,
/// and the highest pages empty out as the queue shrinks. [`trim`](Self::trim)
/// releases the last page once it and the page below it are both empty
/// (one spare page keeps a queue that hovers at a page boundary from
/// allocating per event). The simulator drops the whole slab when its
/// queue drains.
#[derive(Debug)]
pub(crate) struct Slab<M, T> {
    pages: Vec<Page<M, T>>,
    /// Bit `p % 64` of word `p / 64` is set when page `p` has a free slot.
    open: Vec<u64>,
    /// No word of `open` below this one has a bit set.
    first_open: usize,
}

impl<M, T> Slab<M, T> {
    pub fn new() -> Self {
        Slab {
            pages: Vec::new(),
            open: Vec::new(),
            first_open: 0,
        }
    }

    fn get(&self, i: u32) -> &Slot<M, T> {
        &self.pages[i as usize / PAGE].slots[i as usize % PAGE]
    }

    fn get_mut(&mut self, i: u32) -> &mut Slot<M, T> {
        &mut self.pages[i as usize / PAGE].slots[i as usize % PAGE]
    }

    /// Stores `slot` in the most recently freed place of the lowest page
    /// with one free (a new page when none is) and returns its index.
    #[inline]
    pub fn insert(&mut self, slot: Slot<M, T>) -> u32 {
        while self.first_open < self.open.len() && self.open[self.first_open] == 0 {
            self.first_open += 1;
        }
        let p = match self.open.get(self.first_open) {
            Some(word) => self.first_open * 64 + word.trailing_zeros() as usize,
            None => self.grow(),
        };
        let page = &mut self.pages[p];
        let local = page.free;
        let cell = &mut page.slots[local as usize];
        page.free = match cell {
            Slot::Free(next) => *next,
            _ => unreachable!("free list names a used slot"),
        };
        *cell = slot;
        page.used += 1;
        if page.free == NIL {
            self.open[p / 64] &= !(1 << (p % 64));
        }
        (p * PAGE) as u32 + local
    }

    /// Appends one page, all of it free, and returns its index.
    #[cold]
    fn grow(&mut self) -> usize {
        let p = self.pages.len();
        assert!(
            (p + 1) * PAGE <= NIL as usize,
            "more than 2^32 events queued"
        );
        let slots = (1..=PAGE as u32)
            .map(|next| Slot::Free(if next == PAGE as u32 { NIL } else { next }))
            .collect();
        self.pages.push(Page {
            slots,
            free: 0,
            used: 0,
        });
        if p.is_multiple_of(64) {
            self.open.push(0);
        }
        self.open[p / 64] |= 1 << (p % 64);
        self.first_open = self.first_open.min(p / 64);
        p
    }

    /// Empties slot `i` onto its page's free list and returns what it
    /// held. The payload is moved last, after everything that can panic,
    /// so that it is copied once, straight to the caller.
    #[inline]
    pub fn take(&mut self, i: u32) -> Slot<M, T> {
        let (p, local) = (i as usize / PAGE, i % PAGE as u32);
        self.open[p / 64] |= 1 << (p % 64);
        self.first_open = self.first_open.min(p / 64);
        let page = &mut self.pages[p];
        let next = page.free;
        page.free = local;
        page.used -= 1;
        std::mem::replace(&mut page.slots[local as usize], Slot::Free(next))
    }

    /// Releases the last page while it and the one below it are empty.
    /// Not part of [`take`](Self::take), which would then have to keep
    /// the payload it moves out alive across the call: the simulator
    /// calls it once per delivery.
    pub fn trim(&mut self) {
        while let [.., below, last] = &self.pages[..] {
            if below.used != 0 || last.used != 0 {
                return;
            }
            self.pages.pop();
            let p = self.pages.len();
            self.open[p / 64] &= !(1 << (p % 64));
            if p.is_multiple_of(64) {
                self.open.pop();
            }
        }
    }

    /// Stores a copy of the message in slot `i` in a slot of its own.
    pub fn duplicate(&mut self, i: u32) -> u32
    where
        M: Clone,
    {
        let copy = match self.get(i) {
            Slot::Msg(from, msg) => Slot::Msg(*from, msg.clone()),
            _ => unreachable!("only messages are duplicated"),
        };
        self.insert(copy)
    }

    /// The address of slot `i`, to prefetch.
    #[inline]
    pub fn slot_ptr(&self, i: u32) -> *const Slot<M, T> {
        self.get(i)
    }

    /// The message in slot `i`, if it holds one.
    #[inline]
    pub fn msg(&self, i: u32) -> Option<&M> {
        match self.get(i) {
            Slot::Msg(_, msg) => Some(msg),
            _ => None,
        }
    }

    /// Empties timer slot `i` in place; its queued key now pops as stale.
    pub fn cancel(&mut self, i: u32) {
        *self.get_mut(i) = Slot::Canceled;
    }

    /// Whether slot `i` holds a canceled timer.
    pub fn is_canceled(&self, i: u32) -> bool {
        matches!(self.get(i), Slot::Canceled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_is_24_bytes() {
        assert_eq!(std::mem::size_of::<Key>(), 24);
    }

    #[test]
    fn slots_come_from_the_lowest_open_page_last_freed_first() {
        let mut slab: Slab<u32, ()> = Slab::new();
        let first: Vec<u32> = (0..300).map(|m| slab.insert(Slot::Msg(0, m))).collect();
        assert_eq!(first, (0..300).collect::<Vec<u32>>());
        assert_eq!(slab.pages.len(), 2);
        assert!(matches!(slab.take(260), Slot::Msg(0, 260)));
        assert!(matches!(slab.take(7), Slot::Msg(0, 7)));
        assert!(matches!(slab.take(9), Slot::Msg(0, 9)));
        assert_eq!(slab.insert(Slot::Timer(())), 9);
        assert_eq!(slab.insert(Slot::Msg(1, 1)), 7);
        assert_eq!(slab.insert(Slot::Msg(1, 2)), 260);
        assert_eq!(slab.insert(Slot::Msg(1, 3)), 300);
        assert_eq!(slab.duplicate(7), 301);
        assert!(matches!(slab.get(301), Slot::Msg(1, 1)));
        slab.cancel(9);
        assert!(slab.is_canceled(9) && !slab.is_canceled(7));
    }

    #[test]
    fn emptied_pages_at_the_top_are_released_but_one() {
        let mut slab: Slab<u32, ()> = Slab::new();
        for m in 0..(PAGE * 70) as u32 {
            slab.insert(Slot::Msg(0, m));
        }
        assert_eq!((slab.pages.len(), slab.open.len()), (70, 2));
        // Empty pages 3..70 from the top down: one spare stays.
        for i in (3 * PAGE as u32..70 * PAGE as u32).rev() {
            slab.take(i);
            slab.trim();
        }
        assert_eq!((slab.pages.len(), slab.open.len()), (4, 1));
        // Page 1 emptied below a full page 2 stays; page 3 is refilled
        // only after the free slots of page 1.
        for i in PAGE as u32..2 * PAGE as u32 {
            slab.take(i);
            slab.trim();
        }
        assert_eq!(slab.pages.len(), 4);
        assert_eq!(slab.insert(Slot::Msg(2, 0)), 2 * PAGE as u32 - 1);
        for _ in 1..PAGE {
            slab.insert(Slot::Msg(2, 0));
        }
        assert_eq!(slab.insert(Slot::Msg(2, 0)), 3 * PAGE as u32);
    }
}

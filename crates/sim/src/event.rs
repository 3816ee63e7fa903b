/// Virtual time in microseconds since the start of the run.
pub type Time = u64;

/// What a scheduled event carries: a message in flight or a pending timer.
///
/// Timer events carry the *generation* of the arming that scheduled them
/// and are validated against the simulator's armed-timer table at pop
/// time; a canceled or superseded timer's generation no longer matches,
/// so the event is skipped without touching virtual time or any counter —
/// arming-then-canceling perturbs nothing observable.
#[derive(Debug, Clone)]
pub(crate) enum Payload<M, T> {
    /// A message from one actor to another.
    Msg(M),
    /// A timer the destination actor armed for itself, plus the arming
    /// generation it must still match to fire.
    Timer(T, u64),
}

/// A scheduled delivery. Ordering (and equality) consider only the
/// `(at, seq)` key, never the payload, so message types need no `Ord`.
/// The simulator queues `Event<Box<Payload<..>>>`: heap sifts move whole
/// events, and the key is what they should move.
#[derive(Debug, Clone)]
pub(crate) struct Event<M> {
    pub at: Time,
    /// Tie-breaker: events scheduled earlier are delivered first at equal
    /// times, which keeps runs deterministic.
    pub seq: u64,
    pub from: usize,
    pub to: usize,
    pub msg: M,
}

impl<M> PartialEq for Event<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<M> Eq for Event<M> {}

impl<M> Ord for Event<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse order: BinaryHeap is a max-heap, we need earliest first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<M> PartialOrd for Event<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BinaryHeap;

    #[test]
    fn heap_pops_earliest_first_with_seq_tiebreak() {
        let mut heap = BinaryHeap::new();
        for (at, seq) in [(5u64, 0u64), (3, 1), (5, 2), (1, 3), (3, 4)] {
            heap.push(Event {
                at,
                seq,
                from: 0,
                to: 0,
                msg: (),
            });
        }
        let order: Vec<(Time, u64)> =
            std::iter::from_fn(|| heap.pop().map(|e| (e.at, e.seq))).collect();
        assert_eq!(order, vec![(1, 3), (3, 1), (3, 4), (5, 0), (5, 2)]);
    }

    #[test]
    fn boxed_payload_heap_pops_in_the_same_order_and_keeps_payloads() {
        // The shape the simulator queues: a 40-byte key in the heap, a
        // protocol-message-sized payload behind the box.
        type Queued = Event<Box<Payload<[u8; 224], u8>>>;
        assert_eq!(std::mem::size_of::<Queued>(), 40);
        let mut heap: BinaryHeap<Queued> = BinaryHeap::new();
        for (at, seq) in [(5u64, 0u64), (3, 1), (5, 2), (1, 3), (3, 4)] {
            let msg = if seq % 2 == 0 {
                Payload::Msg([seq as u8; 224])
            } else {
                Payload::Timer(seq as u8, at)
            };
            heap.push(Event {
                at,
                seq,
                from: 0,
                to: 0,
                msg: Box::new(msg),
            });
        }
        let mut order = Vec::new();
        while let Some(e) = heap.pop() {
            match *e.msg {
                Payload::Msg(bytes) => assert_eq!(bytes, [e.seq as u8; 224]),
                Payload::Timer(t, gen) => assert_eq!((t as u64, gen), (e.seq, e.at)),
            }
            order.push((e.at, e.seq));
        }
        assert_eq!(order, vec![(1, 3), (3, 1), (3, 4), (5, 0), (5, 2)]);
    }
}

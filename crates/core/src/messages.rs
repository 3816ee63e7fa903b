use hyperring_id::{IdSpace, NodeId};

use crate::table::{NodeState, TableSnapshot};

/// Every message type of the join protocol (the paper's Figure 4), plus the
/// reverse-neighbor notifications whose sending the paper's pseudo-code
/// elides "for clarity of presentation" but whose behavior it specifies.
#[derive(Debug, Clone)]
pub enum Message {
    /// `CpRstMsg` — request a copy of the receiver's neighbor table
    /// (status *copying*). `level` is the level the joining node is
    /// currently constructing; it is echoed in the reply so the reply can
    /// be matched to the copy cursor.
    CpRst {
        /// Level the sender is constructing.
        level: u8,
    },
    /// `CpRlyMsg(x.table)` — response to a `CpRstMsg`.
    CpRly {
        /// Echo of the request level.
        level: u8,
        /// Snapshot of the replier's table.
        table: TableSnapshot,
    },
    /// `JoinWaitMsg` — the joining node asks the receiver to store it
    /// (status *waiting*).
    JoinWait,
    /// `JoinWaitRlyMsg(r, u, y.table)` — response to a `JoinWaitMsg`.
    JoinWaitRly {
        /// `r`: whether the receiver stored the sender (`positive`).
        positive: bool,
        /// `u`: on a negative reply, the node already occupying the entry;
        /// on a positive reply, the joining node itself.
        next: NodeId,
        /// Snapshot of the replier's table.
        table: TableSnapshot,
    },
    /// `JoinNotiMsg(x.table)` — notify the receiver of the sender's
    /// existence (status *notifying*).
    JoinNoti {
        /// Snapshot of the notifier's table (possibly level-restricted,
        /// §6.2).
        table: TableSnapshot,
        /// In [`PayloadMode::BitVector`](crate::PayloadMode::BitVector)
        /// mode, the bit vector of the sender's filled slots and its
        /// notification level; otherwise `None`.
        filled_bits: Option<BitVec>,
    },
    /// `JoinNotiRlyMsg(r, y.table, f)` — response to a `JoinNotiMsg`.
    JoinNotiRly {
        /// `r`: whether the receiver newly stored (or had stored) the
        /// sender.
        positive: bool,
        /// Snapshot of the replier's table.
        table: TableSnapshot,
        /// `f`: set when the replier is an S-node and the notifier's table
        /// held some other node in the replier's slot — triggers a
        /// `SpeNotiMsg`.
        flag: bool,
    },
    /// `InSysNotiMsg` — the sender has become an S-node.
    InSysNoti,
    /// `SpeNotiMsg(x, y)` — inform the receiver of the existence of `y`;
    /// `x` is the initial sender awaiting the reply. Forwarded up to `d`
    /// times.
    SpeNoti {
        /// The node that originated the special notification.
        initiator: NodeId,
        /// The node whose existence is being announced.
        subject: NodeId,
    },
    /// `SpeNotiRlyMsg(x, y)` — terminal response to a `SpeNotiMsg`, sent to
    /// the initiator `x`.
    SpeNotiRly {
        /// The announced node `y` (so the initiator can clear `Q_sr`).
        subject: NodeId,
    },
    /// `RvNghNotiMsg(y, s)` — the sender stored the receiver as a primary
    /// neighbor with recorded state `s`; the receiver now has the sender as
    /// a reverse neighbor.
    RvNghNoti {
        /// State the sender recorded for the receiver.
        recorded: NodeState,
    },
    /// `RvNghNotiRlyMsg(s)` — correction sent only when the recorded state
    /// disagrees with the replier's status.
    RvNghNotiRly {
        /// The replier's actual state (`S` iff status *in_system*).
        actual: NodeState,
    },
    /// `LeaveNotiMsg(r)` — **extension** (the paper defers the leave
    /// protocol to future work): the sender is leaving gracefully and
    /// offers `replacement` for the entry in which the receiver stores it
    /// (a node with the entry's desired suffix, or `None` when the sender
    /// was the last such node).
    LeaveNoti {
        /// Substitute neighbor for the receiver's entry, if any exists.
        replacement: Option<crate::table::Entry>,
    },
    /// `LeaveNotiRlyMsg` — **extension**: acknowledges a `LeaveNotiMsg`;
    /// the leaver departs once all reverse neighbors have acknowledged.
    LeaveNotiRly,
    /// `RvNghForgetMsg` — **extension**: the sender (who had the receiver
    /// in its table) is leaving; the receiver drops it from its
    /// reverse-neighbor sets.
    RvNghForget,
    /// `PingMsg` — **extension** (crash-churn): liveness probe from the
    /// failure detector; any non-crashed receiver answers with `PongMsg`.
    Ping,
    /// `PongMsg` — **extension**: reply to a `PingMsg`; resets the
    /// sender's missed-probe count at the prober.
    Pong,
    /// `RepairQryMsg` — **extension**: the failure detector at `origin`
    /// evicted a dead neighbor from entry `(level, digit)` and asks for a
    /// surviving replacement. Suffix-routed toward `target` (a synthetic
    /// identifier carrying the vacated entry's desired suffix); a receiver
    /// that itself carries the suffix replies, otherwise it forwards one
    /// hop closer.
    RepairQry {
        /// The node whose table entry is being repaired.
        origin: NodeId,
        /// Synthetic routing target carrying the desired suffix.
        target: NodeId,
        /// Level of the vacated entry at `origin`.
        level: u8,
        /// Digit of the vacated entry at `origin`.
        digit: u8,
    },
    /// `RepairRlyMsg` — **extension**: terminal response to a
    /// `RepairQryMsg`, sent directly to the query's origin. `found` names
    /// a node carrying the desired suffix, or `None` when routing
    /// dead-ended (no reachable survivor carries it).
    RepairRly {
        /// Echo of the query's level.
        level: u8,
        /// Echo of the query's digit.
        digit: u8,
        /// A surviving carrier of the desired suffix, if one was reached.
        found: Option<crate::table::Entry>,
    },
}

/// A bit vector over table slots (level-major), used by the §6.2
/// bit-vector enhancement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitVec {
    /// Notification level of the sender (bits below this level matter).
    pub noti_level: u8,
    /// One bit per slot, level-major, packed in `u64` words.
    pub words: Vec<u64>,
}

/// Discriminant of [`Message`], used for statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)]
pub enum MessageKind {
    CpRst,
    CpRly,
    JoinWait,
    JoinWaitRly,
    JoinNoti,
    JoinNotiRly,
    InSysNoti,
    SpeNoti,
    SpeNotiRly,
    RvNghNoti,
    RvNghNotiRly,
    LeaveNoti,
    LeaveNotiRly,
    RvNghForget,
    Ping,
    Pong,
    RepairQry,
    RepairRly,
}

impl MessageKind {
    /// All kinds, in declaration order.
    pub const ALL: [MessageKind; 18] = [
        MessageKind::CpRst,
        MessageKind::CpRly,
        MessageKind::JoinWait,
        MessageKind::JoinWaitRly,
        MessageKind::JoinNoti,
        MessageKind::JoinNotiRly,
        MessageKind::InSysNoti,
        MessageKind::SpeNoti,
        MessageKind::SpeNotiRly,
        MessageKind::RvNghNoti,
        MessageKind::RvNghNotiRly,
        MessageKind::LeaveNoti,
        MessageKind::LeaveNotiRly,
        MessageKind::RvNghForget,
        MessageKind::Ping,
        MessageKind::Pong,
        MessageKind::RepairQry,
        MessageKind::RepairRly,
    ];

    /// Whether the paper counts this type as a "big" message (it may carry
    /// a copy of a neighbor table — §5.2).
    pub fn is_big(&self) -> bool {
        matches!(
            self,
            MessageKind::CpRly
                | MessageKind::JoinWaitRly
                | MessageKind::JoinNoti
                | MessageKind::JoinNotiRly
        )
    }

    /// Short display name matching the paper's message names.
    pub fn name(&self) -> &'static str {
        match self {
            MessageKind::CpRst => "CpRstMsg",
            MessageKind::CpRly => "CpRlyMsg",
            MessageKind::JoinWait => "JoinWaitMsg",
            MessageKind::JoinWaitRly => "JoinWaitRlyMsg",
            MessageKind::JoinNoti => "JoinNotiMsg",
            MessageKind::JoinNotiRly => "JoinNotiRlyMsg",
            MessageKind::InSysNoti => "InSysNotiMsg",
            MessageKind::SpeNoti => "SpeNotiMsg",
            MessageKind::SpeNotiRly => "SpeNotiRlyMsg",
            MessageKind::RvNghNoti => "RvNghNotiMsg",
            MessageKind::RvNghNotiRly => "RvNghNotiRlyMsg",
            MessageKind::LeaveNoti => "LeaveNotiMsg",
            MessageKind::LeaveNotiRly => "LeaveNotiRlyMsg",
            MessageKind::RvNghForget => "RvNghForgetMsg",
            MessageKind::Ping => "PingMsg",
            MessageKind::Pong => "PongMsg",
            MessageKind::RepairQry => "RepairQryMsg",
            MessageKind::RepairRly => "RepairRlyMsg",
        }
    }
}

impl Message {
    /// The kind of this message.
    pub fn kind(&self) -> MessageKind {
        match self {
            Message::CpRst { .. } => MessageKind::CpRst,
            Message::CpRly { .. } => MessageKind::CpRly,
            Message::JoinWait => MessageKind::JoinWait,
            Message::JoinWaitRly { .. } => MessageKind::JoinWaitRly,
            Message::JoinNoti { .. } => MessageKind::JoinNoti,
            Message::JoinNotiRly { .. } => MessageKind::JoinNotiRly,
            Message::InSysNoti => MessageKind::InSysNoti,
            Message::SpeNoti { .. } => MessageKind::SpeNoti,
            Message::SpeNotiRly { .. } => MessageKind::SpeNotiRly,
            Message::RvNghNoti { .. } => MessageKind::RvNghNoti,
            Message::RvNghNotiRly { .. } => MessageKind::RvNghNotiRly,
            Message::LeaveNoti { .. } => MessageKind::LeaveNoti,
            Message::LeaveNotiRly => MessageKind::LeaveNotiRly,
            Message::RvNghForget => MessageKind::RvNghForget,
            Message::Ping => MessageKind::Ping,
            Message::Pong => MessageKind::Pong,
            Message::RepairQry { .. } => MessageKind::RepairQry,
            Message::RepairRly { .. } => MessageKind::RepairRly,
        }
    }

    /// Modeled wire size of the message in bytes, for the §6.2 ablation.
    ///
    /// The model: a 16-byte header (type, sequence, checksum), 4-byte IPv4
    /// address + packed digit string per node reference, and per table row a
    /// level byte, digit byte, state byte and a node reference.
    pub fn wire_size(&self, space: &IdSpace) -> usize {
        const HEADER: usize = 16;
        let id_bytes = packed_id_bytes(space);
        let node_ref = id_bytes + 4;
        let row = 3 + node_ref;
        let table = |t: &TableSnapshot| node_ref + 2 + t.len() * row;
        HEADER
            + match self {
                Message::CpRst { .. } => 1,
                Message::CpRly { table: t, .. } => 1 + table(t),
                Message::JoinWait => 0,
                Message::JoinWaitRly { table: t, .. } => 1 + node_ref + table(t),
                Message::JoinNoti {
                    table: t,
                    filled_bits,
                } => table(t) + filled_bits.as_ref().map_or(0, |b| 1 + b.words.len() * 8),
                Message::JoinNotiRly { table: t, .. } => 2 + table(t),
                Message::InSysNoti => 0,
                Message::SpeNoti { .. } => 2 * node_ref,
                Message::SpeNotiRly { .. } => node_ref,
                Message::RvNghNoti { .. } => 1,
                Message::RvNghNotiRly { .. } => 1,
                Message::LeaveNoti { replacement } => 1 + replacement.map_or(0, |_| node_ref + 1),
                Message::LeaveNotiRly => 0,
                Message::RvNghForget => 0,
                Message::Ping => 0,
                Message::Pong => 0,
                Message::RepairQry { .. } => 2 * node_ref + 2,
                Message::RepairRly { found, .. } => 3 + found.map_or(0, |_| node_ref + 1),
            }
    }
}

/// Bytes needed to pack one `d`-digit base-`b` identifier at
/// `⌈log₂ b⌉` bits a digit. Integer arithmetic only: `wire_size` runs on
/// every send.
pub fn packed_id_bytes(space: &IdSpace) -> usize {
    let bits_per_digit = (space.base() - 1).ilog2() as usize + 1;
    (space.digit_count() * bits_per_digit).div_ceil(8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{NeighborTable, NodeState};

    fn snap(n: usize) -> TableSnapshot {
        let space = IdSpace::new(4, 5).unwrap();
        let owner = space.parse_id("21233").unwrap();
        let mut t = NeighborTable::new(space, owner);
        t.set_self_entries(NodeState::S);
        assert!(n <= 5);
        t.snapshot_levels(0, n)
    }

    #[test]
    fn kinds_cover_all_variants() {
        let space = IdSpace::new(4, 5).unwrap();
        let id = space.parse_id("21233").unwrap();
        let msgs = vec![
            Message::CpRst { level: 0 },
            Message::CpRly {
                level: 0,
                table: snap(5),
            },
            Message::JoinWait,
            Message::JoinWaitRly {
                positive: true,
                next: id,
                table: snap(5),
            },
            Message::JoinNoti {
                table: snap(5),
                filled_bits: None,
            },
            Message::JoinNotiRly {
                positive: false,
                table: snap(5),
                flag: false,
            },
            Message::InSysNoti,
            Message::SpeNoti {
                initiator: id,
                subject: id,
            },
            Message::SpeNotiRly { subject: id },
            Message::RvNghNoti {
                recorded: NodeState::T,
            },
            Message::RvNghNotiRly {
                actual: NodeState::S,
            },
            Message::LeaveNoti { replacement: None },
            Message::LeaveNotiRly,
            Message::RvNghForget,
            Message::Ping,
            Message::Pong,
            Message::RepairQry {
                origin: id,
                target: id,
                level: 1,
                digit: 2,
            },
            Message::RepairRly {
                level: 1,
                digit: 2,
                found: None,
            },
        ];
        let kinds: Vec<MessageKind> = msgs.iter().map(|m| m.kind()).collect();
        assert_eq!(kinds, MessageKind::ALL.to_vec());
    }

    #[test]
    fn big_messages_match_paper_section_5_2() {
        // §5.2: CpRstMsg, JoinWaitMsg, JoinNotiMsg "and their corresponding
        // replies could be big in size since a copy of a neighbor table may
        // be included". Of those six, the four that actually carry a table
        // are big.
        let big: Vec<&str> = MessageKind::ALL
            .iter()
            .filter(|k| k.is_big())
            .map(|k| k.name())
            .collect();
        assert_eq!(
            big,
            vec![
                "CpRlyMsg",
                "JoinWaitRlyMsg",
                "JoinNotiMsg",
                "JoinNotiRlyMsg"
            ]
        );
    }

    #[test]
    fn wire_size_grows_with_table_rows() {
        let space = IdSpace::new(4, 5).unwrap();
        let small = Message::JoinNoti {
            table: snap(1),
            filled_bits: None,
        };
        let large = Message::JoinNoti {
            table: snap(5),
            filled_bits: None,
        };
        assert!(large.wire_size(&space) > small.wire_size(&space));
        assert!(Message::JoinWait.wire_size(&space) < small.wire_size(&space));
    }

    #[test]
    fn packed_id_bytes_examples() {
        // b=16, d=40: 160 bits = 20 bytes (SHA-1 id).
        assert_eq!(packed_id_bytes(&IdSpace::new(16, 40).unwrap()), 20);
        // b=16, d=8: 32 bits.
        assert_eq!(packed_id_bytes(&IdSpace::new(16, 8).unwrap()), 4);
        // b=4, d=5: 10 bits -> 2 bytes.
        assert_eq!(packed_id_bytes(&IdSpace::new(4, 5).unwrap()), 2);
    }

    #[test]
    fn packed_id_bytes_equals_the_float_formula() {
        for b in 2u16..=16 {
            for d in 1..=hyperring_id::MAX_DIGITS {
                let space = IdSpace::new(b, d).unwrap();
                let bits = (b as f64).log2().ceil() as usize;
                assert_eq!(
                    packed_id_bytes(&space),
                    (d * bits).div_ceil(8),
                    "b={b} d={d}"
                );
            }
        }
    }

    #[test]
    fn bitvec_adds_wire_size() {
        let space = IdSpace::new(16, 8).unwrap();
        let plain = Message::JoinNoti {
            table: snap(0),
            filled_bits: None,
        };
        let with_bits = Message::JoinNoti {
            table: snap(0),
            filled_bits: Some(BitVec {
                noti_level: 2,
                words: vec![0; 2],
            }),
        };
        assert_eq!(
            with_bits.wire_size(&space),
            plain.wire_size(&space) + 1 + 16
        );
    }
}

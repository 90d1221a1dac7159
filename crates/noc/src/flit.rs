//! Packets and flits.

use crate::topology::NodeId;
use serde::{Deserialize, Serialize};

/// Packet identifier.
pub type PacketId = u64;

/// Flit position within a packet (wormhole switching operates on these).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FlitKind {
    /// First flit of a multi-flit packet — carries the route.
    Head,
    /// Interior flit.
    Body,
    /// Last flit — releases the wormhole.
    Tail,
    /// Single-flit packet (head and tail at once).
    Single,
}

impl FlitKind {
    /// Whether this flit opens a wormhole (carries routing info).
    pub fn is_head(self) -> bool {
        matches!(self, FlitKind::Head | FlitKind::Single)
    }

    /// Whether this flit closes the wormhole.
    pub fn is_tail(self) -> bool {
        matches!(self, FlitKind::Tail | FlitKind::Single)
    }
}

/// A message to be delivered by the NoC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Packet {
    pub id: PacketId,
    pub src: NodeId,
    pub dst: NodeId,
    /// Number of flits (≥ 1).
    pub num_flits: usize,
}

impl Packet {
    /// A packet carrying `payload_words` f64 words, split into flits of
    /// `words_per_flit`.
    pub fn for_payload(
        id: PacketId,
        src: NodeId,
        dst: NodeId,
        payload_words: usize,
        words_per_flit: usize,
    ) -> Self {
        assert!(words_per_flit > 0);
        Self {
            id,
            src,
            dst,
            num_flits: Self::flits_for(payload_words, words_per_flit),
        }
    }

    /// Flits needed to carry `payload_words` words at `words_per_flit`
    /// per flit: at least one, since a zero-word message still occupies
    /// a header flit.
    pub fn flits_for(payload_words: usize, words_per_flit: usize) -> usize {
        payload_words.div_ceil(words_per_flit).max(1)
    }

    /// Expands the packet into its flit sequence.
    pub fn flits(&self, injected_at: u64) -> Vec<Flit> {
        (0..self.num_flits)
            .map(|i| Flit {
                packet: self.id,
                kind: if self.num_flits == 1 {
                    FlitKind::Single
                } else if i == 0 {
                    FlitKind::Head
                } else if i == self.num_flits - 1 {
                    FlitKind::Tail
                } else {
                    FlitKind::Body
                },
                src: self.src,
                dst: self.dst,
                injected_at,
                hops: 0,
            })
            .collect()
    }
}

/// One flow-control unit.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Flit {
    pub packet: PacketId,
    pub kind: FlitKind,
    pub src: NodeId,
    pub dst: NodeId,
    /// Cycle at which the packet entered the source injection queue.
    pub injected_at: u64,
    /// Router-to-router hops taken so far.
    pub hops: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_flit_packet() {
        let p = Packet::for_payload(1, 0, 5, 3, 4);
        assert_eq!(p.num_flits, 1);
        let f = p.flits(10);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].kind, FlitKind::Single);
        assert!(f[0].kind.is_head() && f[0].kind.is_tail());
        assert_eq!(f[0].injected_at, 10);
    }

    #[test]
    fn multi_flit_structure() {
        let p = Packet::for_payload(2, 1, 2, 16, 4); // 4 flits
        let f = p.flits(0);
        assert_eq!(f.len(), 4);
        assert_eq!(f[0].kind, FlitKind::Head);
        assert_eq!(f[1].kind, FlitKind::Body);
        assert_eq!(f[2].kind, FlitKind::Body);
        assert_eq!(f[3].kind, FlitKind::Tail);
        assert!(!f[1].kind.is_head() && !f[1].kind.is_tail());
    }

    #[test]
    fn zero_payload_still_one_flit() {
        let p = Packet::for_payload(3, 0, 1, 0, 4);
        assert_eq!(p.num_flits, 1);
    }

    #[test]
    fn flit_count_rounds_up() {
        assert_eq!(Packet::for_payload(4, 0, 1, 17, 4).num_flits, 5);
        assert_eq!(Packet::for_payload(5, 0, 1, 16, 4).num_flits, 4);
    }
}

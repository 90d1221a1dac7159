//! NoC configuration: topology mode and bypass-link segmentation.

use crate::error::{BypassKind, NocError};
use crate::topology::NodeId;
use serde::{Deserialize, Serialize};

/// How the reconfigurable fabric is currently wired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TopologyMode {
    /// Plain 2-D mesh (baseline wiring; bypass switches all open).
    Mesh,
    /// Mesh plus configured bypass segments (aggregation sub-accelerator).
    MeshWithBypass,
    /// Each row closed into a unidirectional ring using the row bypass as
    /// the wrap-up link (weight-stationary vertex-update dataflow).
    Rings,
}

/// One configured express segment of a row/column bypass link, attaching
/// the routers at positions `from` and `to` (`from < to`) of row/column
/// `index`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BypassSegment {
    /// Row index (for horizontal segments) or column index (vertical).
    pub index: usize,
    /// Start position along the row (column coordinate) or column (row
    /// coordinate).
    pub from: usize,
    /// End position; must exceed `from + 1` to be useful (an express link
    /// over adjacent routers duplicates the mesh link but is allowed).
    pub to: usize,
}

/// Full NoC configuration.
///
/// `Eq`/`Hash` make a configuration usable as a cache key (the
/// dimension-factored route tables of `aurora_noc::routing::RouteTable`
/// — 2k³ row/column legs — are pure functions of the configuration, so
/// the engine memoizes them per distinct config).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct NocConfig {
    /// Mesh radix: the network is `k × k`.
    pub k: usize,
    /// Virtual channels per input port.
    pub vcs: usize,
    /// Flit slots per VC buffer.
    pub vc_depth: usize,
    /// Payload words (f64) carried per flit.
    pub words_per_flit: usize,
    /// Wiring mode.
    pub mode: TopologyMode,
    /// Configured horizontal bypass segments (≤ 1 physical link per row,
    /// segmentable into disjoint spans).
    pub row_bypass: Vec<BypassSegment>,
    /// Configured vertical bypass segments.
    pub col_bypass: Vec<BypassSegment>,
}

impl NocConfig {
    /// A plain mesh with the paper's router provisioning (2 VCs, 4-deep).
    pub fn mesh(k: usize) -> Self {
        Self {
            k,
            vcs: 2,
            vc_depth: 4,
            words_per_flit: 4,
            mode: TopologyMode::Mesh,
            row_bypass: Vec::new(),
            col_bypass: Vec::new(),
        }
    }

    /// Mesh with the given bypass segments.
    pub fn with_bypass(k: usize, rows: Vec<BypassSegment>, cols: Vec<BypassSegment>) -> Self {
        Self {
            mode: TopologyMode::MeshWithBypass,
            row_bypass: rows,
            col_bypass: cols,
            ..Self::mesh(k)
        }
    }

    /// Row rings for the weight-stationary vertex-update dataflow.
    pub fn rings(k: usize) -> Self {
        Self {
            mode: TopologyMode::Rings,
            ..Self::mesh(k)
        }
    }

    /// A stable 64-bit content fingerprint of the configuration (FNV-1a
    /// over radix, router provisioning, mode and every bypass segment).
    /// Route tables and traffic profiles are pure functions of the
    /// config, so a cached artifact stamped with this signature is valid
    /// exactly while the signature matches — the invalidation hook the
    /// incremental session engine checks before replaying a clean tile's
    /// profile.
    pub fn signature(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        };
        mix(self.k as u64);
        mix(self.vcs as u64);
        mix(self.vc_depth as u64);
        mix(self.words_per_flit as u64);
        mix(match self.mode {
            TopologyMode::Mesh => 0,
            TopologyMode::MeshWithBypass => 1,
            TopologyMode::Rings => 2,
        });
        for seg in self.row_bypass.iter().chain(self.col_bypass.iter()) {
            mix(seg.index as u64);
            mix(seg.from as u64);
            mix(seg.to as u64);
        }
        mix(self.row_bypass.len() as u64);
        h
    }

    /// Validates structural invariants: positive radix/VCs/buffer
    /// depth/payload, segments in range and running forward, no two
    /// segments on one row/column overlapping or sharing a wire tap
    /// (each physical tap attaches one segment), and bypass segments
    /// only in `MeshWithBypass` mode. A config that passes cannot make
    /// `compute_route`/`next_node` step off the fabric.
    pub fn validate(&self) -> Result<(), NocError> {
        if self.k == 0 {
            return Err(NocError::ZeroRadix);
        }
        if self.vcs == 0 {
            return Err(NocError::NoVirtualChannels);
        }
        if self.vc_depth == 0 {
            return Err(NocError::ZeroVcDepth);
        }
        if self.words_per_flit == 0 {
            return Err(NocError::EmptyFlitPayload);
        }
        if self.mode != TopologyMode::MeshWithBypass
            && !(self.row_bypass.is_empty() && self.col_bypass.is_empty())
        {
            return Err(NocError::BypassRequiresBypassMode);
        }
        for (kind, segs) in [
            (BypassKind::Row, &self.row_bypass),
            (BypassKind::Col, &self.col_bypass),
        ] {
            let mut spans: std::collections::HashMap<usize, Vec<(usize, usize)>> =
                std::collections::HashMap::new();
            for s in segs.iter() {
                if s.index >= self.k {
                    return Err(NocError::SegmentOutOfRange {
                        kind,
                        index: s.index,
                        value: s.index,
                        k: self.k,
                    });
                }
                if s.from >= s.to {
                    return Err(NocError::SegmentNotForward {
                        kind,
                        index: s.index,
                        from: s.from,
                        to: s.to,
                    });
                }
                if s.to >= self.k {
                    return Err(NocError::SegmentOutOfRange {
                        kind,
                        index: s.index,
                        value: s.to,
                        k: self.k,
                    });
                }
                spans.entry(s.index).or_default().push((s.from, s.to));
            }
            for (idx, mut list) in spans {
                list.sort_unstable();
                for w in list.windows(2) {
                    if w[0].1 >= w[1].0 {
                        return Err(NocError::SegmentOverlap { kind, index: idx });
                    }
                }
            }
        }
        Ok(())
    }

    /// The horizontal bypass attachment of node `id`, if any: the node id
    /// at the other end of the segment. A linear scan of the segments,
    /// for one-off queries; a `RouteTable` indexes every node's peers
    /// once at build time instead.
    pub fn h_bypass_peer(&self, id: NodeId) -> Option<NodeId> {
        let (x, y) = (id % self.k, id / self.k);
        self.h_bypass_tap(x, y).map(|px| y * self.k + px)
    }

    /// The vertical bypass attachment of node `id`, if any.
    pub fn v_bypass_peer(&self, id: NodeId) -> Option<NodeId> {
        let (x, y) = (id % self.k, id / self.k);
        self.v_bypass_tap(x, y).map(|py| py * self.k + x)
    }

    /// The column at the other end of the horizontal segment tapping
    /// router `(x, y)`, if any.
    pub(crate) fn h_bypass_tap(&self, x: usize, y: usize) -> Option<usize> {
        other_end(&self.row_bypass, y, x)
    }

    /// The row at the other end of the vertical segment tapping router
    /// `(x, y)`, if any.
    pub(crate) fn v_bypass_tap(&self, x: usize, y: usize) -> Option<usize> {
        other_end(&self.col_bypass, x, y)
    }

    /// Flits needed to carry a `msg_words`-word message (at least one —
    /// a zero-word message still occupies a header flit).
    pub fn flits_per_message(&self, msg_words: usize) -> u64 {
        msg_words.div_ceil(self.words_per_flit).max(1) as u64
    }

    /// Number of reconfigurable switch settings changed when reprogramming
    /// from `self` to `other` — used for reconfiguration latency/energy.
    /// The paper reports the latency of one full reconfiguration of a
    /// `k × k` array as `2k − 1` cycles (§VI-D: 63 cycles for 32 × 32).
    pub fn reconfiguration_cycles(&self) -> u64 {
        (2 * self.k - 1) as u64
    }
}

/// The far end of the first segment on line `index` that taps position
/// `pos`.
fn other_end(segs: &[BypassSegment], index: usize, pos: usize) -> Option<usize> {
    segs.iter().find_map(|s| {
        if s.index != index {
            None
        } else if s.from == pos {
            Some(s.to)
        } else if s.to == pos {
            Some(s.from)
        } else {
            None
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesh_default_validates() {
        NocConfig::mesh(4).validate().unwrap();
        NocConfig::rings(8).validate().unwrap();
    }

    #[test]
    fn reconfig_latency_matches_paper() {
        assert_eq!(NocConfig::mesh(32).reconfiguration_cycles(), 63);
    }

    #[test]
    fn bypass_peers() {
        let cfg = NocConfig::with_bypass(
            4,
            vec![BypassSegment {
                index: 1,
                from: 0,
                to: 3,
            }],
            vec![BypassSegment {
                index: 2,
                from: 1,
                to: 3,
            }],
        );
        cfg.validate().unwrap();
        // row 1: nodes 4..7; segment joins node 4 and node 7
        assert_eq!(cfg.h_bypass_peer(4), Some(7));
        assert_eq!(cfg.h_bypass_peer(7), Some(4));
        assert_eq!(cfg.h_bypass_peer(5), None);
        assert_eq!(cfg.h_bypass_peer(0), None);
        // col 2: segment joins (2, y=1) = 6 and (2, y=3) = 14
        assert_eq!(cfg.v_bypass_peer(6), Some(14));
        assert_eq!(cfg.v_bypass_peer(14), Some(6));
        assert_eq!(cfg.v_bypass_peer(2), None);
    }

    #[test]
    fn segmented_row_multiple_spans() {
        let cfg = NocConfig::with_bypass(
            8,
            vec![
                BypassSegment {
                    index: 0,
                    from: 0,
                    to: 3,
                },
                BypassSegment {
                    index: 0,
                    from: 4,
                    to: 7,
                },
            ],
            vec![],
        );
        cfg.validate().unwrap();
        assert_eq!(cfg.h_bypass_peer(0), Some(3));
        assert_eq!(cfg.h_bypass_peer(4), Some(7));
    }

    #[test]
    fn overlapping_segments_rejected() {
        let err = NocConfig::with_bypass(
            8,
            vec![
                BypassSegment {
                    index: 0,
                    from: 0,
                    to: 4,
                },
                BypassSegment {
                    index: 0,
                    from: 4,
                    to: 7,
                },
            ],
            vec![],
        )
        .validate()
        .unwrap_err();
        assert_eq!(
            err,
            crate::NocError::SegmentOverlap {
                kind: crate::BypassKind::Row,
                index: 0
            }
        );
    }

    #[test]
    fn out_of_range_segment_rejected() {
        let err = NocConfig::with_bypass(
            4,
            vec![BypassSegment {
                index: 0,
                from: 0,
                to: 4,
            }],
            vec![],
        )
        .validate()
        .unwrap_err();
        assert!(matches!(
            err,
            crate::NocError::SegmentOutOfRange { value: 4, k: 4, .. }
        ));
    }

    #[test]
    fn bypass_needs_right_mode() {
        let mut cfg = NocConfig::mesh(4);
        cfg.row_bypass.push(BypassSegment {
            index: 0,
            from: 0,
            to: 2,
        });
        assert_eq!(
            cfg.validate().unwrap_err(),
            crate::NocError::BypassRequiresBypassMode
        );
    }

    #[test]
    fn degenerate_and_zero_configs_rejected() {
        let err = NocConfig::with_bypass(
            8,
            vec![BypassSegment {
                index: 0,
                from: 3,
                to: 3,
            }],
            vec![],
        )
        .validate()
        .unwrap_err();
        assert!(matches!(err, crate::NocError::SegmentNotForward { .. }));

        let mut cfg = NocConfig::mesh(4);
        cfg.vcs = 0;
        assert_eq!(
            cfg.validate().unwrap_err(),
            crate::NocError::NoVirtualChannels
        );
        let mut cfg = NocConfig::mesh(4);
        cfg.vc_depth = 0;
        assert_eq!(cfg.validate().unwrap_err(), crate::NocError::ZeroVcDepth);
        let mut cfg = NocConfig::mesh(4);
        cfg.words_per_flit = 0;
        assert_eq!(
            cfg.validate().unwrap_err(),
            crate::NocError::EmptyFlitPayload
        );
        assert_eq!(
            NocConfig::mesh(0).validate().unwrap_err(),
            crate::NocError::ZeroRadix
        );
    }
}

//! Per-peer piece timelines (Fig. 5) and swarm census series (Fig. 10).

use std::collections::HashMap;
use tchain_metrics::TimeSeries;
use tchain_proto::PieceId;
use tchain_sim::NodeId;

/// Cumulative encrypted-pieces-received vs. keys-received timelines for a
/// single leecher — the two lines of Fig. 5. The vertical gap between them
/// is the reciprocation backlog; its growth for a 400 Kbps leecher is the
/// paper's illustration of upload-bandwidth-limited key arrival.
#[derive(Debug, Clone, Default)]
pub struct PieceTimeline {
    /// `(time, cumulative encrypted pieces received)`.
    pub encrypted: TimeSeries,
    /// `(time, cumulative decryption keys received)` — i.e. pieces
    /// actually completed.
    pub decrypted: TimeSeries,
    /// `(piece, completion time)` in completion order — the raw material
    /// for the streaming extension's playback metrics.
    pub completions: Vec<(PieceId, f64)>,
}

/// Opt-in recorder: experiments register the peers they care about before
/// the run; everything else stays unrecorded so big runs stay lean.
#[derive(Debug, Default)]
pub struct Telemetry {
    timelines: HashMap<NodeId, PieceTimeline>,
    enc_counts: HashMap<NodeId, u64>,
    dec_counts: HashMap<NodeId, u64>,
}

impl Telemetry {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts recording `id`'s piece timeline.
    pub fn watch(&mut self, id: NodeId) {
        self.timelines.entry(id).or_default();
        self.enc_counts.entry(id).or_insert(0);
        self.dec_counts.entry(id).or_insert(0);
    }

    /// Records an encrypted-piece arrival for a watched peer (no-op for
    /// unwatched peers).
    pub fn on_encrypted(&mut self, id: NodeId, now: f64) {
        if let Some(tl) = self.timelines.get_mut(&id) {
            let c = self.enc_counts.entry(id).or_insert(0);
            *c += 1;
            tl.encrypted.push(now, *c as f64);
        }
    }

    /// Records a key arrival (piece decrypted) for a watched peer.
    pub fn on_decrypted(&mut self, id: NodeId, now: f64) {
        if let Some(tl) = self.timelines.get_mut(&id) {
            let c = self.dec_counts.entry(id).or_insert(0);
            *c += 1;
            tl.decrypted.push(now, *c as f64);
        }
    }

    /// Records a completed piece (decrypted or received plain) for a
    /// watched peer.
    pub fn on_complete(&mut self, id: NodeId, piece: PieceId, now: f64) {
        if let Some(tl) = self.timelines.get_mut(&id) {
            tl.completions.push((piece, now));
        }
    }

    /// The recorded timeline for `id`, if watched.
    pub fn timeline(&self, id: NodeId) -> Option<&PieceTimeline> {
        self.timelines.get(&id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwatched_peers_cost_nothing() {
        let mut t = Telemetry::new();
        t.on_encrypted(NodeId(1), 0.0);
        t.on_decrypted(NodeId(1), 1.0);
        assert!(t.timeline(NodeId(1)).is_none());
    }

    #[test]
    fn watched_peer_accumulates() {
        let mut t = Telemetry::new();
        t.watch(NodeId(2));
        t.on_encrypted(NodeId(2), 1.0);
        t.on_encrypted(NodeId(2), 2.0);
        t.on_decrypted(NodeId(2), 3.0);
        t.on_complete(NodeId(2), PieceId(5), 3.0);
        let tl = t.timeline(NodeId(2)).unwrap();
        assert_eq!(tl.encrypted.last(), Some((2.0, 2.0)));
        assert_eq!(tl.decrypted.last(), Some((3.0, 1.0)));
        assert_eq!(tl.completions, vec![(PieceId(5), 3.0)]);
        // Encrypted line leads the decrypted line, as in Fig. 5.
        assert!(tl.encrypted.last().unwrap().1 >= tl.decrypted.last().unwrap().1);
    }
}

//! The wire oracle: a frame-level audit of the T-Chain incentive
//! invariant, independent of the runtime it checks.
//!
//! The [`Observer`] watches every delivered frame and checks that **no
//! key travels without a reciprocation behind it**. A `KeyRelease` from
//! `S` to `T` for piece `p` is legal only when
//!
//! 1. the transaction `(S → T, p)` was reported by its designated payee
//!    (the §II-B2 release, §II-D1 relays and duplicate re-sends), or
//! 2. `T` is the designated payee of the unreported transaction
//!    `(S → R, p)` named by the frame's escrow `requestor` marker — the
//!    §II-B4 handoff of a departing donor, or
//! 3. `S` holds such an escrow for a transaction `(D → T, p)` and `T`'s
//!    reciprocation has been observed — the escrow release (marked with
//!    `requestor = T`).
//!
//! Anything else is a violation and fails the run. The observer also
//! reconstructs chains (an upload either opens one or extends the chain
//! of the transaction it reciprocates) so chain-length statistics are
//! comparable with the fluid simulator's.
//!
//! This module sees frames and peer ids — nothing from `runtime.rs` and
//! no harness state — so the oracle shares no code with the
//! implementation it audits.

use crate::frame::Frame;
use crate::transport::Delivery;
use std::collections::{BTreeMap, BTreeSet};
use tchain_proto::wire::Message;

#[derive(Debug)]
struct TxnObs {
    payee: Option<u32>,
    reported: bool,
    escrowed: bool,
    /// The report that closed this txn attested a reciprocation the
    /// observer never saw on the wire (§IV-D collusion).
    false_report: bool,
    /// The forged report already unlocked a key (colluder gain is one
    /// key per falsified txn — retransmitted releases are not extra
    /// loot).
    gain_booked: bool,
    chain: usize,
}

#[derive(Debug, Default)]
struct ChainObs {
    len: u32,
    terminated: bool,
}

/// Frame-level audit of the incentive invariant.
#[derive(Debug, Default)]
pub struct Observer {
    /// `(donor, requestor, piece) -> state`.
    txns: BTreeMap<(u32, u32, u32), TxnObs>,
    /// Triples whose *earlier generation* was reported before a re-upload
    /// replaced the entry. When a key release is lost in flight, the
    /// requestor re-requests and the donor opens a fresh txn for the same
    /// triple — but the donor's retry timer may still re-send the old
    /// generation's key, which is backed by the delivered report of that
    /// generation and must not audit against the new, unreported one.
    reported_generations: BTreeSet<(u32, u32, u32)>,
    /// `(donor, piece, requestor)` reciprocations seen on the wire.
    recips: BTreeMap<(u32, u32), Vec<u32>>,
    /// Peers that left the swarm. A report delivered to a departed donor
    /// must *not* mark its transaction reported: the donor never acted on
    /// it, so its §II-B4 handoff of that key (racing the report on the
    /// wire) is the legitimate — and only — release path.
    departed: std::collections::BTreeSet<u32>,
    /// Wire identities run by a strategic operator → scenario label.
    /// The incentive-economics ledger attributes per-frame flows
    /// (leakage, Sybil trials, false reports) to these.
    attackers: BTreeMap<u32, &'static str>,
    /// Colluder/Sybil group of strategic identities.
    groups: BTreeMap<u32, u32>,
    /// Seeder ids, for attributing seeder-altruism leakage.
    seeders: BTreeSet<u32>,
    chains: Vec<ChainObs>,
    /// Human-readable invariant violations (must stay empty).
    pub violations: Vec<String>,
    /// Encrypted uploads seen.
    pub uploads: u64,
    /// §II-B3 unencrypted gift uploads seen.
    pub gifts: u64,
    /// Reception reports seen.
    pub reports: u64,
    /// Key releases seen.
    pub key_releases: u64,
    /// Key releases classified as §II-B4 escrow handoffs.
    pub escrow_transfers: u64,
    /// False reception reports detected — reports attesting a
    /// reciprocation that never crossed the wire — once per txn.
    pub false_reports: u64,
    /// `(reporter, donor, requestor, piece)` per detected false report.
    pub false_report_log: Vec<(u32, u32, u32, u32)>,
    /// Key releases a colluder extracted via a false report. The donor
    /// acted in good faith on a payee-signed report, so these book as
    /// colluder gain, not invariant violations.
    pub colluder_gain: u64,
    /// Designated-payee uploads non-attackers donated to attackers.
    pub altruism_leaked: u64,
    /// Uploads (encrypted or gift) seeders donated to attackers.
    pub seeder_leakage: u64,
    /// §II-B3 gifts that landed on attackers.
    pub gift_leakage: u64,
    /// Designated-payee uploads whose requestor sat in a Sybil group —
    /// the §III-A4 trials.
    pub sybil_checks: u64,
    /// Trials where the payee landed in the requestor's own group.
    pub sybil_collisions: u64,
}

impl Observer {
    pub(crate) fn observe(&mut self, d: &Delivery) {
        // A chaos-fabricated duplicate is wire noise, not a sender action:
        // auditing the second copy would re-register live transactions
        // (erasing `reported` and flagging the donor's later, legal key
        // release) and double-count protocol events. The schedule
        // explorer found exactly that phantom; receivers still process
        // the copy — only the audit skips it.
        if d.duplicated {
            return;
        }
        let (from, to) = (d.from.0, d.to.0);
        let Frame::Control(msg) = &d.frame else { return };
        match msg {
            Message::PieceUpload { reciprocates, piece, payee, .. } => {
                let p = piece.0;
                let payee = payee.map(|n| n.0);
                // Chain attribution: an upload either extends the chain
                // of the transaction it reciprocates or opens a new one.
                let chain = match reciprocates {
                    Some((p0, d0)) => {
                        let parent_key = (d0.0, from, p0.0);
                        self.recips.entry((d0.0, p0.0)).or_default().push(from);
                        if let Some(parent) = self.txns.get(&parent_key) {
                            // Direct reciprocity: the donor is its own
                            // payee, and this upload *is* the report
                            // (unless the donor already left — then it
                            // never learns of the reciprocation).
                            if parent.payee == Some(d0.0)
                                && d0.0 == to
                                && !self.departed.contains(&to)
                            {
                                let c = parent.chain;
                                self.txns.get_mut(&parent_key).expect("checked").reported = true;
                                c
                            } else {
                                parent.chain
                            }
                        } else {
                            self.new_chain()
                        }
                    }
                    None => self.new_chain(),
                };
                if let Some(c) = self.chains.get_mut(chain) {
                    c.len += 1;
                }
                match payee {
                    Some(py) => {
                        self.uploads += 1;
                        if self.attackers.contains_key(&to) && !self.attackers.contains_key(&from) {
                            self.altruism_leaked += 1;
                        }
                        // §III-A4 Sybil trial: the exploit fires only
                        // when the requestor *and* the payee land in the
                        // same group.
                        if let Some(g) = self.groups.get(&to) {
                            self.sybil_checks += 1;
                            if self.groups.get(&py) == Some(g) {
                                self.sybil_collisions += 1;
                            }
                        }
                        // A re-upload of the same triple is a genuinely
                        // new transaction (retry after loss or stall,
                        // with a freshly designated payee) and replaces
                        // the audit entry; chaos-fabricated duplicates
                        // never reach this point. If the superseded
                        // generation was already reported, remember it —
                        // its key may still be retried legally.
                        if self.txns.get(&(from, to, p)).is_some_and(|t| t.reported) {
                            self.reported_generations.insert((from, to, p));
                        }
                        self.txns.insert(
                            (from, to, p),
                            TxnObs {
                                payee,
                                reported: false,
                                escrowed: false,
                                false_report: false,
                                gain_booked: false,
                                chain,
                            },
                        );
                    }
                    None => {
                        // §II-B3 termination: no key, chain ends here.
                        self.gifts += 1;
                        if self.attackers.contains_key(&to) {
                            self.gift_leakage += 1;
                        }
                        if let Some(c) = self.chains.get_mut(chain) {
                            c.terminated = true;
                        }
                    }
                }
                if self.seeders.contains(&from) && self.attackers.contains_key(&to) {
                    self.seeder_leakage += 1;
                }
            }
            Message::ReceptionReport { requestor, piece } => {
                self.reports += 1;
                if !self.departed.contains(&to) {
                    // Detection soundness: a truthful report is always
                    // preceded on the wire by the reciprocation it
                    // attests — the payee only learns of the txn from
                    // that delivery — so a payee-signed report with no
                    // observed reciprocation from the requestor toward
                    // the donor is provably false (§IV-D).
                    let truthful = self
                        .recips
                        .get(&(to, piece.0))
                        .is_some_and(|rs| rs.contains(&requestor.0));
                    if let Some(t) = self.txns.get_mut(&(to, requestor.0, piece.0)) {
                        if t.payee == Some(from) {
                            if !truthful && !t.reported {
                                t.false_report = true;
                                self.false_reports += 1;
                                self.false_report_log.push((from, to, requestor.0, piece.0));
                            }
                            t.reported = true;
                        }
                    }
                }
            }
            Message::KeyRelease { piece, requestor, .. } => {
                let p = piece.0;
                self.key_releases += 1;
                match self.classify_key(from, to, p, requestor.map(|r| r.0)) {
                    Some(true) => self.escrow_transfers += 1,
                    Some(false) => {}
                    None => {
                        let ctx: Vec<String> = self
                            .txns
                            .iter()
                            .filter(|((d, r, tp), _)| {
                                *tp == p && (*d == from || *r == to || *d == to || *r == from)
                            })
                            .map(|((d, r, tp), t)| {
                                format!(
                                    "txn {d}->{r} p{tp} payee={:?} reported={} escrowed={}",
                                    t.payee, t.reported, t.escrowed
                                )
                            })
                            .collect();
                        self.violations.push(format!(
                            "unreciprocated key release {from} -> {to} piece {p} tag={:?} [{}]",
                            requestor.map(|r| r.0),
                            ctx.join("; ")
                        ));
                    }
                }
            }
            _ => {}
        }
    }

    /// Applies release rules 1–3 from the module docs. `Some(true)` means
    /// an escrow-path release, `Some(false)` a normal one, `None` a
    /// violation. The wire `requestor` marker pins the escrow rules to
    /// one specific transaction — an untagged release is only ever legal
    /// under rule 1.
    fn classify_key(
        &mut self,
        from: u32,
        to: u32,
        piece: u32,
        requestor: Option<u32>,
    ) -> Option<bool> {
        match requestor {
            // Rule 1: the release closes a reported txn (from -> to).
            None => {
                if let Some(t) = self.txns.get_mut(&(from, to, piece)) {
                    if t.reported {
                        // A falsely-reported txn still releases "legally":
                        // the donor acted in good faith on a payee-signed
                        // report. The audit books the extraction instead —
                        // once per txn, so duplicate releases of the same
                        // key never inflate the gain.
                        if t.false_report && !t.gain_booked {
                            t.gain_booked = true;
                            self.colluder_gain += 1;
                        }
                        return Some(false);
                    }
                }
                // A late retry of a superseded generation's key: that
                // generation's report was delivered before a re-upload
                // replaced the txn entry, so the release is still backed
                // by observed reciprocation.
                self.reported_generations.contains(&(from, to, piece)).then_some(false)
            }
            // Rule 2: a departing donor hands the key of its unreported
            // txn `(from -> r, piece)` to that txn's payee `to`.
            Some(r) if r != to => {
                let t = self.txns.get_mut(&(from, r, piece))?;
                if t.payee == Some(to) && !t.reported {
                    t.escrowed = true;
                    Some(true)
                } else {
                    None
                }
            }
            // Rule 3: the payee `from` forwards an escrowed key to the
            // requestor `to`, whose reciprocation has been seen.
            Some(_) => {
                let release = self.txns.iter().any(|((d, r, p), t)| {
                    *r == to
                        && *p == piece
                        && t.payee == Some(from)
                        && t.escrowed
                        && self.recips.get(&(*d, *p)).is_some_and(|rs| rs.contains(&to))
                });
                release.then_some(true)
            }
        }
    }

    /// Records that `id` left the swarm; later frames addressed to it are
    /// audited as delivered-but-unacted-on.
    pub fn note_departed(&mut self, id: u32) {
        self.departed.insert(id);
    }

    /// Records that a crashed `id` rejoined as its restarted successor:
    /// it acts on delivered frames again, so the departed-peer audit
    /// carve-outs no longer apply to it.
    pub fn note_rejoined(&mut self, id: u32) {
        self.departed.remove(&id);
    }

    /// Registers a strategic wire identity for the audit ledger, so
    /// leakage and Sybil counters attribute per-frame flows to it.
    pub fn note_attacker(&mut self, id: u32, label: &'static str, group: Option<u32>) {
        self.attackers.insert(id, label);
        if let Some(g) = group {
            self.groups.insert(id, g);
        }
    }

    /// Registers a seeder id for leakage attribution.
    pub fn note_seeder(&mut self, id: u32) {
        self.seeders.insert(id);
    }

    fn new_chain(&mut self) -> usize {
        self.chains.push(ChainObs::default());
        self.chains.len() - 1
    }

    /// Chains opened.
    pub fn chains_started(&self) -> usize {
        self.chains.len()
    }

    /// Mean transactions per chain.
    pub fn mean_chain_len(&self) -> f64 {
        if self.chains.is_empty() {
            return 0.0;
        }
        self.chains.iter().map(|c| f64::from(c.len)).sum::<f64>() / self.chains.len() as f64
    }

    /// Longest chain observed.
    pub fn max_chain_len(&self) -> u32 {
        self.chains.iter().map(|c| c.len).max().unwrap_or(0)
    }

    /// Chains that ended in a §II-B3 unencrypted termination.
    pub fn chains_terminated(&self) -> usize {
        self.chains.iter().filter(|c| c.terminated).count()
    }

    /// Transactions per chain, in chain-open order (telemetry feeds its
    /// chain-length histogram from this).
    pub fn chain_lengths(&self) -> Vec<u32> {
        self.chains.iter().map(|c| c.len).collect()
    }
}

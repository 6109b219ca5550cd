//! Property tests (`tchain_sim::forall`) on the core invariants the
//! protocol stack depends on.

use tchain::crypto::Keyring;
use tchain::metrics::{Cdf, OnlineStats, Summary};
use tchain::proto::{Bitfield, PieceId};
use tchain::sim::{FlowScheduler, NodeId, SimRng};
use tchain_sim::{ensure, ensure_eq, forall, sized};

/// Cases per property unless a test states otherwise.
const CASES: u32 = 256;

/// Encrypt/decrypt with the minted key is the identity; any other
/// minted key is not (the almost-fair exchange's soundness). Lengths run
/// past four of the cipher's 512 B wide chunks plus a ragged tail, and the
/// ciphertext is the RFC block function's keystream, block by block.
#[test]
fn cipher_roundtrip() {
    forall(0xC1F4E2, CASES, |rng, size| {
        let seed = rng.u64();
        let mut data = vec![0u8; sized(rng, size, 1, 5 * 512)];
        rng.fill(&mut data);
        let mut ring = Keyring::new(seed);
        let (_, k1) = ring.mint();
        let (_, k2) = ring.mint();
        let ct = k1.apply_to_vec(&data);
        let wire = k1.to_wire_bytes();
        let (key, nonce) = wire.split_at(32);
        let (key, nonce) = (key.try_into().unwrap(), nonce.try_into().unwrap());
        for (i, (c, p)) in ct.chunks(64).zip(data.chunks(64)).enumerate() {
            let ks = tchain::crypto::block(key, i as u32, nonce);
            ensure!(
                c.iter().zip(p).zip(ks).all(|((c, p), k)| *c == p ^ k),
                "block {i} is not the reference's"
            );
        }
        ensure_eq!(k1.apply_to_vec(&ct), data);
        if data.len() >= 16 {
            ensure!(k2.apply_to_vec(&ct) != data);
        }
        Ok(())
    });
}

/// Bitfield set/count/has agree, and interest tests match a naive
/// reference implementation.
#[test]
fn bitfield_reference() {
    forall(0xB17F1E1D, CASES, |rng, size| {
        let len = 1 + rng.below(299);
        let mut a = Bitfield::new(len);
        let mut b = Bitfield::new(len);
        let mut sa = std::collections::BTreeSet::new();
        let mut sb = std::collections::BTreeSet::new();
        for _ in 0..sized(rng, size, 0, 64) {
            let i = rng.u64() as u16 as usize % len;
            a.set(PieceId(i as u32));
            sa.insert(i);
        }
        for _ in 0..sized(rng, size, 0, 64) {
            let i = rng.u64() as u16 as usize % len;
            b.set(PieceId(i as u32));
            sb.insert(i);
        }
        ensure_eq!(a.count(), sa.len());
        let missing: Vec<usize> = a.missing_from(&b).map(|p| p.index()).collect();
        let expected: Vec<usize> = sb.difference(&sa).copied().collect();
        ensure_eq!(missing, expected);
        ensure_eq!(a.wants_from(&b), sb.difference(&sa).next().is_some());
        ensure_eq!(a.difference(&b), sa.symmetric_difference(&sb).count());
        Ok(())
    });
}

/// The flow scheduler conserves bytes and never exceeds capacity.
#[test]
fn flow_conservation() {
    forall(0xF10C0, CASES, |rng, size| {
        let cap = rng.range(1.0, 1000.0);
        let sizes: Vec<f64> = (0..sized(rng, size, 1, 12)).map(|_| rng.range(1.0, 500.0)).collect();
        let steps = 1 + rng.below(59);
        let mut fs = FlowScheduler::new();
        let src = NodeId(0);
        fs.set_capacity(src, cap);
        for (i, &s) in sizes.iter().enumerate() {
            fs.start(src, NodeId(i as u32 + 1), s, rng.range(0.1, 8.0), 0);
        }
        let mut done = Vec::new();
        for _ in 0..steps {
            fs.advance(0.5, &mut done);
        }
        let uploaded = fs.uploaded(src);
        ensure!(uploaded <= cap * 0.5 * steps as f64 + 1e-6);
        let received: f64 = (0..sizes.len()).map(|i| fs.downloaded(NodeId(i as u32 + 1))).sum();
        ensure!((received - uploaded).abs() < 1e-6);
        let total: f64 = sizes.iter().sum();
        ensure!(uploaded <= total + 1e-6);
        // Completed flows each carried exactly their size.
        for f in &done {
            ensure!((f.done - f.size).abs() < 1e-3);
        }
        Ok(())
    });
}

/// CDF and Summary agree with naive statistics.
#[test]
fn stats_reference() {
    forall(0x57A75, CASES, |rng, size| {
        let xs: Vec<f64> = (0..sized(rng, size, 1, 200)).map(|_| rng.range(0.0, 1e6)).collect();
        let s: OnlineStats = xs.iter().copied().collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        ensure!((s.mean() - mean).abs() < 1e-6 * mean.max(1.0));
        let sm = Summary::of(&xs);
        ensure!((sm.mean - mean).abs() < 1e-6 * mean.max(1.0));
        ensure!(sm.ci95 >= 0.0);
        let cdf = Cdf::new(xs.clone());
        ensure_eq!(cdf.at(f64::INFINITY), 1.0);
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        ensure!(cdf.at(min - 1.0) == 0.0);
        ensure!(cdf.quantile(1.0) >= cdf.quantile(0.0));
        Ok(())
    });
}

/// RNG sampling without replacement returns distinct in-range items.
#[test]
fn rng_sample_distinct() {
    forall(0x5A3B1E, CASES, |rng, _| {
        let (seed, n, k) = (rng.u64(), 1 + rng.below(99), rng.below(100));
        let mut sampler = SimRng::new(seed);
        let xs: Vec<u32> = (0..n as u32).collect();
        let s = sampler.sample(&xs, k);
        ensure_eq!(s.len(), k.min(n));
        let mut d = s.clone();
        d.sort_unstable();
        d.dedup();
        ensure_eq!(d.len(), s.len());
        ensure!(s.iter().all(|&x| (x as usize) < n));
        Ok(())
    });
}

/// Wire codec: every structurally valid message round-trips, no
/// prefix of an encoding parses, and an out-of-bounds ciphertext
/// length is rejected by the strict decoder.
#[test]
fn wire_roundtrip() {
    use tchain::proto::wire::{Message, MAX_CIPHERTEXT_LEN};
    forall(0x3173, CASES, |rng, _| {
        let recip = rng.chance(0.5).then(|| (rng.u64() as u32, rng.u64() as u32));
        let payee = rng.chance(0.5).then(|| rng.u64() as u32);
        let (piece, len) = (rng.u64() as u32, rng.u64() as u32);
        let m = Message::PieceUpload {
            reciprocates: recip.map(|(p, d)| (PieceId(p), NodeId(d))),
            piece: PieceId(piece),
            payee: payee.map(NodeId),
            ciphertext_len: len % (MAX_CIPHERTEXT_LEN + 1),
        };
        let enc = m.encode();
        ensure_eq!(Message::decode(&enc), Ok(m));
        for cut in 0..enc.len() {
            ensure!(Message::decode(&enc[..cut]).is_err());
        }
        if len > MAX_CIPHERTEXT_LEN {
            let oversized = Message::PieceUpload {
                reciprocates: None,
                piece: PieceId(piece),
                payee: None,
                ciphertext_len: len,
            };
            ensure!(Message::decode(&oversized.encode()).is_err());
        }
        Ok(())
    });
}

/// Arena handles never alias across remove/insert cycles.
#[test]
fn arena_no_aliasing() {
    use tchain::core::arena::{Arena, Handle};
    forall(0xA2E4A, CASES, |rng, size| {
        let mut ops = vec![0u8; sized(rng, size, 1, 200)];
        rng.fill(&mut ops);
        let mut arena: Arena<u32> = Arena::new();
        let mut live: Vec<(Handle, u32)> = Vec::new();
        let mut next = 0u32;
        for op in ops {
            if op % 3 == 0 && !live.is_empty() {
                let (h, v) = live.swap_remove((op as usize / 3) % live.len());
                ensure_eq!(arena.remove(h), Some(v));
                ensure_eq!(arena.get(h), None, "stale handle must not resolve");
            } else {
                let h = arena.insert(next);
                live.push((h, next));
                next += 1;
            }
        }
        ensure_eq!(arena.len(), live.len());
        for (h, v) in live {
            ensure_eq!(arena.get(h), Some(&v));
        }
        Ok(())
    });
}

/// Tracker samples are always distinct, in-swarm and requester-free.
#[test]
fn tracker_sampling() {
    use tchain::proto::Tracker;
    forall(0x72AC4E2, CASES, |rng, _| {
        let (n, k, seed) = (1 + rng.below(79), rng.below(80), rng.u64());
        let mut t = Tracker::new();
        for i in 0..n as u32 {
            t.register(NodeId(i));
        }
        let mut sampler = SimRng::new(seed);
        let req = NodeId(0);
        let s = t.random_members(req, k, &mut sampler);
        ensure!(s.len() <= k);
        ensure!(!s.contains(&req));
        let mut d = s.clone();
        d.sort_unstable();
        d.dedup();
        ensure_eq!(d.len(), s.len());
        ensure!(s.iter().all(|m| m.0 < n as u32));
        Ok(())
    });
}

/// Whole-stack invariant: for any small compliant swarm, every
/// leecher finishes, downloads equal the file size, and nobody
/// decrypts more pieces than exist.
#[test]
fn small_swarm_always_drains() {
    use tchain::attacks::{FluidDriver, PeerPlan};
    use tchain::core::{TChainConfig, TChainSwarm};
    use tchain::proto::{FileSpec, Role};
    forall(0x5A11, 12, |rng, _| {
        let (n, pieces, seed) = (2 + rng.below(12), 2 + rng.below(22), rng.below(500) as u64);
        let file = FileSpec::custom(pieces, 64.0 * 1024.0, 64.0 * 1024.0);
        let plan: Vec<PeerPlan> =
            (0..n).map(|i| PeerPlan::compliant(i as f64 * 0.3, 100_000.0)).collect();
        let mut sw = TChainSwarm::new(file, TChainConfig::default(), plan, seed);
        sw.run_until_done();
        let done = sw.base().completion_times(true);
        ensure_eq!(done.len(), n, "all leechers finish (n {n}, pieces {pieces}, seed {seed})");
        for p in sw.base().peers.iter() {
            if p.role == Role::Leecher {
                ensure!(p.pieces_down as usize >= pieces, "downloaded whole file");
            }
        }
        Ok(())
    });
}

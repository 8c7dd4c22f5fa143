//! Max-min fair rate allocation over bounded-multiport interfaces.
//!
//! Each active flow consumes one unit of share on up to two *links*: the
//! source PE's outgoing interface and the destination PE's incoming
//! interface (memory-backed flows touch only one). All links have equal
//! capacity `bw`. Progressive filling: repeatedly find the most
//! contended unfrozen link, split its remaining capacity equally among
//! its unfrozen flows, freeze them — the classic water-filling algorithm,
//! which is the fluid equilibrium of simultaneous DMA streams sharing
//! interfaces.
//!
//! Progressive filling decomposes over the connected components of the
//! flow–link graph (a flow joins its one or two links). A round touches
//! only the links of the flows it freezes, which lie in one component,
//! and inside a component the rounds run in the order the global filling
//! runs them: smallest share first, the lowest link index on a tie. The
//! order of the flows does not matter: the flows a round freezes all get
//! its share, and each of their links loses that same share once per
//! flow. So [`MaxMin`] keeps the flows by the caller's ids, marks the
//! links of every flow that starts or finishes, and re-shares only the
//! components its marks reach ([`MaxMin::reshare`]); every other flow
//! keeps, bit for bit, the rate the last re-share gave it.
//!
//! The filling runs in flat buffers: per link its residual capacity and
//! unfrozen count, per flow its two link ends, and the flows on each
//! link, the marked links and the unfrozen flows as bitsets of 64-bit
//! words. The closure walks out from the marked links through the
//! per-link flow sets; a round finds its link by a bit-scan over the
//! links the closure reached and freezes that link's flows with one
//! word operation per 64 flows.

use crate::bits;

/// A flow's link endpoints: indices into the link table, or `None` for a
/// memory endpoint (unconstrained).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowPorts {
    /// Outgoing interface of the source PE (link index), if constrained.
    pub src_link: Option<usize>,
    /// Incoming interface of the destination PE (link index), if constrained.
    pub dst_link: Option<usize>,
}

/// The flows sharing the links, by id, and the buffers of their max-min
/// allocation: a simulation re-shares its links every time a flow starts
/// or finishes, and after the first few calls none of these has to grow.
///
/// The per-link tables have one slot past the last link, the *memory
/// slot*: a memory end points there, so the filling needs no test for
/// it. The slot is never marked, so it joins no component and is never
/// a bottleneck.
#[derive(Debug)]
pub struct MaxMin {
    /// Per link, during a filling: residual capacity and unfrozen flows.
    /// Every count is back at zero when a filling ends.
    rem: Vec<f64>,
    cnt: Vec<u32>,
    /// The flows on each link and on the memory slot: word
    /// `w * rem.len() + l` holds flows `64 w ..` on link `l`.
    link_flows: Vec<u64>,
    /// The flows with no link, and every flow.
    unlinked: Vec<u64>,
    flows: Vec<u64>,
    /// Per flow id: its link ends, and its rate from the last filling
    /// that reached it.
    ends: Vec<[u32; 2]>,
    rates: Vec<f64>,
    /// Links whose flow set changed since the last re-share. During one,
    /// the links its closure reached, which the argmin scans (dropping
    /// each it finds without unfrozen flows): empty again at the end.
    marked: Vec<u64>,
    /// Links the closure reached and has not yet expanded.
    frontier: Vec<u64>,
    /// Flows the re-share fills, those of them still unfrozen, and those
    /// the closure's last step took.
    filled: Vec<u64>,
    unfrozen: Vec<u64>,
    took: Vec<u64>,
}

impl MaxMin {
    /// No flows over `n_links` links, every one marked: the first
    /// re-share fills every flow.
    pub fn new(n_links: usize) -> MaxMin {
        assert!(n_links < u32::MAX as usize, "too many links");
        let words = (n_links + 1).div_ceil(64);
        let mut fair = MaxMin {
            rem: vec![0.0; n_links + 1],
            cnt: vec![0; n_links + 1],
            link_flows: Vec::new(),
            unlinked: Vec::new(),
            flows: Vec::new(),
            ends: Vec::new(),
            rates: Vec::new(),
            marked: vec![0; words],
            frontier: vec![0; words],
            filled: Vec::new(),
            unfrozen: Vec::new(),
            took: Vec::new(),
        };
        fair.mark_all();
        fair
    }

    /// The number of links, which is also the memory slot.
    fn n_links(&self) -> usize {
        self.rem.len() - 1
    }

    /// Mark every link: the next re-share fills every flow.
    pub fn mark_all(&mut self) {
        let n_links = self.n_links();
        for (w, word) in self.marked.iter_mut().enumerate() {
            let below = n_links.saturating_sub(64 * w).min(64);
            *word = if below == 64 { !0 } else { (1 << below) - 1 };
        }
    }

    fn mark(&mut self, [a, b]: [u32; 2]) {
        for l in [a as usize, b as usize] {
            if l != self.n_links() {
                bits::set(&mut self.marked, l);
            }
        }
    }

    /// Flow `id` starts streaming over `ports`; its links are marked.
    pub fn start(&mut self, id: usize, ports: FlowPorts) {
        let memory = self.n_links();
        let end = |l: Option<usize>| {
            l.map_or(memory, |l| {
                assert!(l < memory, "link index out of range");
                l
            })
        };
        let (a, b) = (end(ports.src_link), end(ports.dst_link));
        let (w, bit) = (id / 64, 1 << (id % 64));
        if w >= self.flows.len() {
            self.flows.resize(w + 1, 0);
            self.unlinked.resize(w + 1, 0);
            self.link_flows.resize((w + 1) * self.rem.len(), 0);
        }
        if id >= self.ends.len() {
            self.ends.resize(id + 1, [0; 2]);
            self.rates.resize(id + 1, f64::INFINITY);
        }
        assert!(self.flows[w] & bit == 0, "flow {id} is already streaming");
        self.flows[w] |= bit;
        let block = &mut self.link_flows[w * self.rem.len()..];
        block[a] |= bit;
        block[b] |= bit;
        if a == memory && b == memory {
            self.unlinked[w] |= bit;
        }
        self.ends[id] = [a as u32, b as u32];
        self.mark(self.ends[id]);
    }

    /// Flow `id` finishes; its links are marked.
    pub fn finish(&mut self, id: usize) {
        let (w, bit) = (id / 64, 1u64 << (id % 64));
        assert!(self.flows.get(w).is_some_and(|f| f & bit != 0), "flow {id} is not streaming");
        self.flows[w] &= !bit;
        self.unlinked[w] &= !bit;
        let block = &mut self.link_flows[w * self.rem.len()..];
        for l in self.ends[id] {
            block[l as usize] &= !bit;
        }
        self.mark(self.ends[id]);
    }

    /// Re-share links of uniform `capacity` among the streaming flows
    /// whose component holds a marked link, and unmark every link. Yields
    /// each re-shared flow's id and max-min fair rate, in id order; every
    /// other flow's rate is the one it had. A flow with neither endpoint
    /// constrained is always re-shared, at `f64::INFINITY` (treated by
    /// callers as "instantaneous").
    pub fn reshare(&mut self, capacity: f64) -> impl Iterator<Item = (usize, f64)> + '_ {
        assert!(capacity > 0.0);
        let MaxMin {
            rem,
            cnt,
            link_flows,
            unlinked,
            flows,
            ends,
            rates,
            marked,
            frontier,
            filled,
            unfrozen,
            took,
        } = self;
        let slots = rem.len();
        let memory = slots - 1;
        let words = flows.len();
        filled.clone_from(unlinked);
        took.clear();
        took.resize(words, 0);
        // close the marked links over the flows, a step at a time: take
        // the flows on the links reached last, then reach their other ends
        frontier.copy_from_slice(marked);
        loop {
            for l in bits::ones(frontier) {
                for w in 0..words {
                    let on = link_flows[w * slots + l] & !filled[w];
                    filled[w] |= on;
                    took[w] |= on;
                }
            }
            frontier.fill(0);
            let mut grew = false;
            for i in bits::ones(took) {
                for l in ends[i] {
                    let l = l as usize;
                    if l != memory && !bits::test(marked, l) {
                        bits::set(marked, l);
                        bits::set(frontier, l);
                        grew = true;
                    }
                }
            }
            took.fill(0);
            if !grew {
                break;
            }
        }

        unfrozen.clone_from(filled);
        for i in bits::ones(filled) {
            rates[i] = f64::INFINITY;
            for l in ends[i] {
                rem[l as usize] = capacity;
                cnt[l as usize] += 1;
            }
        }
        loop {
            // most contended link = smallest fair share among links with
            // unfrozen flows
            let mut best: Option<(usize, f64)> = None;
            for (w, word) in marked.iter_mut().enumerate() {
                for l in bits::word_ones(w, *word) {
                    if cnt[l] == 0 {
                        *word &= !(1 << (l % 64));
                        continue;
                    }
                    let share = rem[l] / f64::from(cnt[l]);
                    if best.is_none_or(|(_, s)| share < s) {
                        best = Some((l, share));
                    }
                }
            }
            let Some((l, share)) = best else { break };
            // freeze that link's unfrozen flows at the fair share
            for (w, word) in unfrozen.iter_mut().enumerate() {
                let freeze = *word & link_flows[w * slots + l];
                *word &= !freeze;
                for fi in bits::word_ones(w, freeze) {
                    rates[fi] = share;
                    for other in ends[fi] {
                        let other = other as usize;
                        rem[other] = (rem[other] - share).max(0.0);
                        cnt[other] -= 1;
                    }
                }
            }
        }
        // flows with no link never leave the memory slot
        cnt[memory] = 0;
        let (filled, rates): (&[u64], &[f64]) = (filled, rates);
        bits::ones(filled).map(move |i| (i, rates[i]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const BW: f64 = 100.0;

    /// One full re-share of `flows` over `n_links` links, flow `i` under
    /// id `i`.
    fn max_min_rates(flows: &[FlowPorts], n_links: usize, capacity: f64) -> Vec<f64> {
        let mut fair = MaxMin::new(n_links);
        for (id, &f) in flows.iter().enumerate() {
            fair.start(id, f);
        }
        let mut rates = vec![f64::NAN; flows.len()];
        fair.reshare(capacity).for_each(|(id, r)| rates[id] = r);
        rates
    }

    /// The progressive filling [`MaxMin`] replaced, kept as the
    /// reference: per-link flow lists, an argmin over every link and a
    /// freeze walk down the chosen link's list, in flow order.
    fn reference_rates(flows: &[FlowPorts], n_links: usize, capacity: f64) -> Vec<f64> {
        let mut rates = vec![f64::INFINITY; flows.len()];
        let mut remaining_cap = vec![capacity; n_links];
        let mut link_flows: Vec<Vec<usize>> = vec![Vec::new(); n_links];
        for (fi, f) in flows.iter().enumerate() {
            for l in [f.src_link, f.dst_link].into_iter().flatten() {
                link_flows[l].push(fi);
            }
        }
        let mut frozen = vec![false; flows.len()];
        let mut unfrozen_count: Vec<usize> = link_flows.iter().map(Vec::len).collect();
        loop {
            let mut best: Option<(usize, f64)> = None;
            for l in 0..n_links {
                if unfrozen_count[l] == 0 {
                    continue;
                }
                let share = remaining_cap[l] / unfrozen_count[l] as f64;
                if best.is_none_or(|(_, s)| share < s) {
                    best = Some((l, share));
                }
            }
            let Some((l, share)) = best else { break };
            for &fi in &link_flows[l] {
                if frozen[fi] {
                    continue;
                }
                frozen[fi] = true;
                rates[fi] = share;
                for other in [flows[fi].src_link, flows[fi].dst_link].into_iter().flatten() {
                    remaining_cap[other] = (remaining_cap[other] - share).max(0.0);
                    unfrozen_count[other] -= 1;
                }
            }
        }
        rates
    }

    fn ports(src: Option<usize>, dst: Option<usize>) -> FlowPorts {
        FlowPorts { src_link: src, dst_link: dst }
    }

    fn bits(rates: &[f64]) -> Vec<u64> {
        rates.iter().map(|r| r.to_bits()).collect()
    }

    /// A flow over `n` links: most with two ends, some memory-side (one
    /// end), a few with none.
    fn flow(n: usize, (kind, a, b): (usize, usize, usize)) -> FlowPorts {
        let (a, b) = (a % n, b % n);
        match kind {
            0..=4 => ports(Some(a), Some(b)),
            5 => ports(Some(a), None),
            6 => ports(None, Some(b)),
            _ => ports(None, None),
        }
    }

    /// 2–80 links and up to 100 flows on them, with copies of earlier
    /// flows so that pairs repeat.
    fn arb_flows() -> impl Strategy<Value = (usize, Vec<FlowPorts>)> {
        (2usize..=80)
            .prop_flat_map(|n| {
                let raw = (0usize..8, 0..n, 0..n);
                (Just(n), collection::vec(raw, 0..=90), collection::vec(0usize..1000, 0..=10))
            })
            .prop_map(|(n, raw, copies)| {
                let mut flows: Vec<FlowPorts> = raw.into_iter().map(|r| flow(n, r)).collect();
                if !flows.is_empty() {
                    for c in copies {
                        flows.push(flows[c % flows.len()]);
                    }
                }
                (n, flows)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn prop_flat_filling_matches_the_reference_bit_for_bit(
            (n_links, flows) in arb_flows(),
            capacity in 1.0f64..1e3,
        ) {
            let want = reference_rates(&flows, n_links, capacity);
            let got = max_min_rates(&flows, n_links, capacity);
            prop_assert_eq!(bits(&got), bits(&want));
        }

        #[test]
        fn prop_a_reshare_of_the_marked_components_matches_a_full_one(
            (n_links, flows) in arb_flows(),
            finished in collection::vec(any::<bool>(), 100..=100),
            started in collection::vec((0usize..7, 0usize..1000, 0usize..1000), 0..6),
        ) {
            // what a simulation does between two re-shares: some flows
            // finish, new ones start under the lowest free ids, and the
            // reference sees the flows in the order they started
            let mut fair = MaxMin::new(n_links);
            let mut live: Vec<(usize, FlowPorts)> = flows.iter().copied().enumerate().collect();
            for &(id, f) in &live {
                fair.start(id, f);
            }
            let mut rate = vec![f64::NAN; flows.len() + 6];
            fair.reshare(BW).for_each(|(id, r)| rate[id] = r);
            let held: Vec<f64> = live.iter().map(|&(id, _)| rate[id]).collect();
            prop_assert_eq!(bits(&held), bits(&reference_rates(&flows, n_links, BW)));

            let mut free = Vec::new();
            live.retain(|&(id, _)| {
                if finished[id] {
                    fair.finish(id);
                    free.push(id);
                }
                !finished[id]
            });
            free.reverse();
            let mut fresh = flows.len()..;
            for raw in started {
                let id = free.pop().unwrap_or_else(|| fresh.next().unwrap());
                let f = flow(n_links, raw);
                fair.start(id, f);
                rate[id] = f64::NAN;
                live.push((id, f));
            }
            fair.reshare(BW).for_each(|(id, r)| rate[id] = r);
            let held: Vec<f64> = live.iter().map(|&(id, _)| rate[id]).collect();
            let now: Vec<FlowPorts> = live.iter().map(|&(_, f)| f).collect();
            prop_assert_eq!(bits(&held), bits(&reference_rates(&now, n_links, BW)));
        }
    }

    #[test]
    fn unmarked_components_are_not_reshared() {
        // two components: flows 0, 1 over links 0, 1, 2 and flow 2 over
        // links 3, 4
        let mut fair = MaxMin::new(5);
        fair.start(0, ports(Some(0), Some(1)));
        fair.start(1, ports(Some(2), Some(1)));
        fair.start(2, ports(Some(3), Some(4)));
        assert_eq!(fair.reshare(BW).count(), 3, "the first re-share fills every flow");
        assert_eq!(fair.reshare(BW).count(), 0, "nothing marked, nothing filled");
        fair.start(3, ports(Some(2), None));
        let got: Vec<(usize, f64)> = fair.reshare(BW).collect();
        assert_eq!(got, vec![(0, 50.0), (1, 50.0), (3, 50.0)], "link 2 reaches flow 0");
        fair.finish(3);
        let got: Vec<(usize, f64)> = fair.reshare(BW).collect();
        assert_eq!(got, vec![(0, 50.0), (1, 50.0)]);
    }

    #[test]
    fn more_than_64_links_and_flows() {
        // a chain of 70 flows over 71 links, two flows per inner link:
        // every word of every bitset is in play
        let flows: Vec<FlowPorts> = (0..70).map(|i| ports(Some(i), Some(i + 1))).collect();
        let want = reference_rates(&flows, 71, BW);
        assert!(want.iter().all(|&r| r == 50.0), "{want:?}");
        assert_eq!(bits(&max_min_rates(&flows, 71, BW)), bits(&want));
        let mut fair = MaxMin::new(71);
        for (id, &f) in flows.iter().enumerate() {
            fair.start(id, f);
        }
        fair.reshare(BW).for_each(drop);
        fair.finish(69);
        assert_eq!(fair.reshare(BW).count(), 69, "the chain is one component");
    }

    #[test]
    fn a_reused_workspace_answers_like_a_fresh_one() {
        // what one re-share leaves behind (longer link sets, frozen
        // flows, residual capacities, an empty flow set in between) must
        // not leak into the next: each set's flows replace every flow of
        // the one before under the same ids
        let calls: [(&[FlowPorts], usize); 5] = [
            (&[ports(Some(0), Some(3)), ports(Some(0), Some(4)), ports(Some(1), Some(3))], 6),
            (&[ports(None, Some(1)), ports(None, None)], 2),
            (&[], 3),
            (&[ports(Some(0), Some(1)), ports(Some(0), Some(2)), ports(Some(3), Some(1))], 4),
            (&[ports(Some(5), Some(4)), ports(None, None)], 6),
        ];
        let mut reused = MaxMin::new(6);
        let mut streaming = 0;
        for (flows, n_links) in calls {
            (0..streaming).for_each(|id| reused.finish(id));
            for (id, &f) in flows.iter().enumerate() {
                reused.start(id, f);
            }
            streaming = flows.len();
            let (ids, got): (Vec<usize>, Vec<f64>) = reused.reshare(BW).unzip();
            assert_eq!(ids, (0..flows.len()).collect::<Vec<_>>(), "only the new flows");
            assert_eq!(bits(&got), bits(&max_min_rates(flows, n_links, BW)), "{flows:?}");
        }
    }

    #[test]
    #[should_panic(expected = "flow 1 is already streaming")]
    fn an_id_streams_once() {
        let mut fair = MaxMin::new(4);
        fair.start(1, ports(Some(0), Some(2)));
        fair.start(1, ports(Some(1), Some(3)));
    }

    #[test]
    fn single_flow_gets_full_bandwidth() {
        let rates = max_min_rates(&[ports(Some(0), Some(1))], 4, BW);
        assert_eq!(rates, vec![BW]);
    }

    #[test]
    fn two_flows_share_a_common_link() {
        // both leave link 0, arrive at distinct links
        let flows = [ports(Some(0), Some(1)), ports(Some(0), Some(2))];
        let rates = max_min_rates(&flows, 4, BW);
        assert!((rates[0] - 50.0).abs() < 1e-9);
        assert!((rates[1] - 50.0).abs() < 1e-9);
    }

    #[test]
    fn independent_flows_do_not_interfere() {
        let flows = [ports(Some(0), Some(1)), ports(Some(2), Some(3))];
        let rates = max_min_rates(&flows, 4, BW);
        assert_eq!(rates, vec![BW, BW]);
    }

    #[test]
    fn max_min_gives_leftover_to_uncontended_flow() {
        // flows A,B share link 0; flow C shares link 1 with A's destination.
        // A and B get 50 each on link 0. C then gets the remaining 50 on
        // link 1 plus nothing more (its own src link is free): rate 50.
        let flows = [
            ports(Some(0), Some(1)), // A
            ports(Some(0), Some(2)), // B
            ports(Some(3), Some(1)), // C
        ];
        let rates = max_min_rates(&flows, 4, BW);
        assert!((rates[0] - 50.0).abs() < 1e-9, "{rates:?}");
        assert!((rates[1] - 50.0).abs() < 1e-9);
        assert!((rates[2] - 50.0).abs() < 1e-9);
    }

    #[test]
    fn memory_flows_only_constrained_on_one_side() {
        // a memory read into link 1 shares it with an edge transfer
        let flows = [ports(None, Some(1)), ports(Some(0), Some(1))];
        let rates = max_min_rates(&flows, 4, BW);
        assert!((rates[0] - 50.0).abs() < 1e-9);
        assert!((rates[1] - 50.0).abs() < 1e-9);
    }

    #[test]
    fn fully_unconstrained_flow_is_instantaneous() {
        let rates = max_min_rates(&[ports(None, None)], 2, BW);
        assert!(rates[0].is_infinite());
    }

    #[test]
    fn no_flows_no_rates() {
        assert!(max_min_rates(&[], 3, BW).is_empty());
    }

    #[test]
    fn capacity_never_exceeded() {
        // random-ish dense pattern: all pairs among 3 links
        let mut flows = Vec::new();
        for s in 0..3usize {
            for d in 0..3usize {
                if s != d {
                    flows.push(ports(Some(s), Some(3 + d)));
                }
            }
        }
        let rates = max_min_rates(&flows, 6, BW);
        let mut load = vec![0.0; 6];
        for (f, r) in flows.iter().zip(&rates) {
            for l in [f.src_link, f.dst_link].into_iter().flatten() {
                load[l] += r;
            }
        }
        for l in load {
            assert!(l <= BW + 1e-6, "link overloaded: {l}");
        }
        // and the allocation is work-conserving on the bottleneck links
        assert!(rates.iter().all(|&r| r > 0.0));
    }
}

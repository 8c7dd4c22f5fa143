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

/// A flow's link endpoints: indices into the link table, or `None` for a
/// memory endpoint (unconstrained).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowPorts {
    /// Outgoing interface of the source PE (link index), if constrained.
    pub src_link: Option<usize>,
    /// Incoming interface of the destination PE (link index), if constrained.
    pub dst_link: Option<usize>,
}

/// The buffers of a max-min allocation, kept between calls: a
/// simulation re-shares its links every time a flow starts or finishes,
/// and after the first few calls none of these has to grow.
#[derive(Debug, Default)]
pub struct MaxMin {
    rates: Vec<f64>,
    remaining_cap: Vec<f64>,
    /// Flows on each link, in flow order.
    link_flows: Vec<Vec<usize>>,
    frozen: Vec<bool>,
    unfrozen_count: Vec<usize>,
}

impl MaxMin {
    /// Compute max-min fair rates for `flows` over `n_links` links of
    /// uniform `capacity`. Returns one rate per flow. Flows with neither
    /// endpoint constrained get `f64::INFINITY` (treated by callers as
    /// "instantaneous").
    pub fn rates(&mut self, flows: &[FlowPorts], n_links: usize, capacity: f64) -> &[f64] {
        assert!(capacity > 0.0);
        let MaxMin { rates, remaining_cap, link_flows, frozen, unfrozen_count } = self;
        rates.clear();
        rates.resize(flows.len(), f64::INFINITY);
        if flows.is_empty() {
            return rates;
        }
        remaining_cap.clear();
        remaining_cap.resize(n_links, capacity);
        link_flows.resize_with(n_links, Vec::new);
        link_flows.iter_mut().for_each(Vec::clear);
        for (fi, f) in flows.iter().enumerate() {
            for l in [f.src_link, f.dst_link].into_iter().flatten() {
                assert!(l < n_links, "link index out of range");
                link_flows[l].push(fi);
            }
        }
        frozen.clear();
        frozen.resize(flows.len(), false);
        unfrozen_count.clear();
        unfrozen_count.extend(link_flows.iter().map(Vec::len));

        loop {
            // most contended link = smallest fair share among links with
            // unfrozen flows
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
            // freeze that link's unfrozen flows at the fair share
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
}

#[cfg(test)]
mod tests {
    use super::*;

    const BW: f64 = 100.0;

    fn max_min_rates(flows: &[FlowPorts], n_links: usize, capacity: f64) -> Vec<f64> {
        MaxMin::default().rates(flows, n_links, capacity).to_vec()
    }

    fn ports(src: Option<usize>, dst: Option<usize>) -> FlowPorts {
        FlowPorts { src_link: src, dst_link: dst }
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
    fn a_reused_workspace_answers_like_a_fresh_one() {
        // what one call leaves behind (longer link lists, more links,
        // frozen flags) must not leak into the next
        let calls: [(&[FlowPorts], usize); 4] = [
            (&[ports(Some(0), Some(3)), ports(Some(0), Some(4)), ports(Some(1), Some(3))], 6),
            (&[ports(None, Some(1))], 2),
            (&[], 3),
            (&[ports(Some(0), Some(1)), ports(Some(0), Some(2)), ports(Some(3), Some(1))], 4),
        ];
        let mut reused = MaxMin::default();
        for (flows, n_links) in calls {
            let fresh = max_min_rates(flows, n_links, BW);
            assert_eq!(reused.rates(flows, n_links, BW), fresh.as_slice());
        }
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

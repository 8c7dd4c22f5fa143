//! The count gates of the serving binaries (`online`, `cluster`,
//! `faults`), as predicates a test can feed a failing run: each returns
//! the refusal a binary `expect`s on. None compares a wall-clock
//! duration — timing is gated by `benchmark/` alone.

/// `online`: repair keeps ≥ 95 % of from-scratch throughput (geometric
/// mean of `T_scratch / T_repair` over the applied events).
pub fn repair_quality(geo_quality: f64) -> Result<(), String> {
    if geo_quality >= 0.95 {
        Ok(())
    } else {
        Err(format!(
            "GATE: repair quality {:.1}% fell below 95% of from-scratch",
            geo_quality * 100.0
        ))
    }
}

/// `cluster`: the scoring placer delivers at least as many instances
/// as every `(name, instances)` baseline.
pub fn placer_ordering(scoring: f64, baselines: &[(&str, f64)]) -> Result<(), String> {
    match baselines.iter().find(|(_, delivered)| scoring < *delivered) {
        None => Ok(()),
        Some((name, delivered)) => {
            Err(format!("GATE: scoring placer delivered {scoring:.0} < {name} {delivered:.0}"))
        }
    }
}

/// `cluster`: a drain re-places every resident application.
pub fn drain_strands_nothing(stranded: usize) -> Result<(), String> {
    if stranded == 0 {
        Ok(())
    } else {
        Err(format!("GATE: drain stranded {stranded} apps"))
    }
}

/// `faults`: the fault bit (it evacuated seats), and the guaranteed
/// rate is back at ≥ 90 % of its pre-fault value before the event
/// bound runs out.
pub fn recovery(
    evacuated_seats: usize,
    pre_rate: f64,
    recovered_rate: f64,
    events_to_recover: usize,
    event_bound: usize,
) -> Result<(), String> {
    if evacuated_seats == 0 {
        return Err("GATE: the failed SPE carried no seat, the recovery was never exercised".into());
    }
    if recovered_rate < 0.9 * pre_rate {
        return Err(format!(
            "GATE: rate recovered to {recovered_rate:.0}/s, below 90% of pre-fault \
             {pre_rate:.0}/s within {event_bound} events"
        ));
    }
    if events_to_recover >= event_bound {
        return Err("GATE: recovery needed the whole event bound".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repair_quality_refuses_a_run_below_the_floor() {
        assert_eq!(repair_quality(0.95), Ok(()));
        let refusal = repair_quality(0.949).unwrap_err();
        assert!(refusal.contains("94.9% fell below 95%"), "{refusal}");
    }

    #[test]
    fn placer_ordering_refuses_a_baseline_that_wins() {
        assert_eq!(placer_ordering(10.0, &[("round-robin", 10.0), ("random", 9.0)]), Ok(()));
        let refusal = placer_ordering(10.0, &[("round-robin", 9.0), ("random", 11.0)]).unwrap_err();
        assert!(refusal.contains("delivered 10 < random 11"), "{refusal}");
    }

    #[test]
    fn drain_refuses_a_stranded_app() {
        assert_eq!(drain_strands_nothing(0), Ok(()));
        let refusal = drain_strands_nothing(2).unwrap_err();
        assert!(refusal.contains("stranded 2 apps"), "{refusal}");
    }

    #[test]
    fn recovery_refuses_a_vacuous_a_slow_and_a_late_run() {
        assert_eq!(recovery(3, 100.0, 90.0, 15, 16), Ok(()));
        let vacuous = recovery(0, 100.0, 100.0, 0, 16).unwrap_err();
        assert!(vacuous.contains("carried no seat"), "{vacuous}");
        let slow = recovery(3, 100.0, 89.0, 15, 16).unwrap_err();
        assert!(slow.contains("89/s, below 90% of pre-fault 100/s"), "{slow}");
        let late = recovery(3, 100.0, 95.0, 16, 16).unwrap_err();
        assert!(late.contains("whole event bound"), "{late}");
    }
}

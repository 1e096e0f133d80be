//! Property tests for the budget-accounting layer:
//!
//! * sequential composition — admitted charges *sum* onto the account;
//! * `for_stretch`/`split` round-trips — scaling down by ℓ (or into n
//!   parts) and re-multiplying recovers the original ε;
//! * safety — a [`Ledger`] account never goes negative, never exceeds
//!   its total (beyond the tiny admission slack `1e-9 + 1e-12·total`,
//!   which absorbs f64 summation error only), and never admits
//!   a fit after exhaustion.

use blowfish_privacy::core::CoreError;
use blowfish_privacy::prelude::*;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sequential_spends_sum(charges in prop_vec(0.001f64..0.2, 1usize..12)) {
        let ledger = Ledger::new();
        ledger.open("t", Epsilon::new(10.0).unwrap()).unwrap();
        let mut expected = 0.0;
        for (i, &c) in charges.iter().enumerate() {
            let receipt = ledger
                .charge("t", &format!("c{i}"), Epsilon::new(c).unwrap())
                .unwrap();
            expected += c;
            prop_assert!((receipt.spent - expected).abs() < 1e-9);
        }
        prop_assert!((ledger.spent("t").unwrap() - expected).abs() < 1e-9);
        prop_assert!((ledger.remaining("t").unwrap() - (10.0 - expected)).abs() < 1e-9);
        prop_assert_eq!(ledger.snapshot("t").unwrap().charges, charges.len());
    }

    #[test]
    fn stretch_and_split_round_trip(e in 0.01f64..5.0, l in 1usize..40) {
        let eps = Epsilon::new(e).unwrap();
        // ε/ℓ scaled back up by ℓ recovers ε (Corollary 4.6 both ways).
        let down = eps.for_stretch(l).unwrap();
        prop_assert!((down.value() * l as f64 - e).abs() < 1e-9 * e.max(1.0));
        // Splitting into l parts and sequentially composing them back
        // (sum) also recovers ε.
        let part = eps.split(l).unwrap();
        prop_assert!((part.value() * l as f64 - e).abs() < 1e-9 * e.max(1.0));
    }

    #[test]
    fn ledger_never_goes_negative_or_admits_post_exhaustion(
        total in 0.1f64..1.0,
        attempts in prop_vec(0.01f64..0.5, 1usize..30),
    ) {
        let ledger = Ledger::new();
        ledger.open("t", Epsilon::new(total).unwrap()).unwrap();
        let mut exhausted_at: Option<usize> = None;
        let mut admitted_sum = 0.0;
        for (i, &a) in attempts.iter().enumerate() {
            let before = ledger.spent("t").unwrap();
            match ledger.charge("t", "try", Epsilon::new(a).unwrap()) {
                Ok(receipt) => {
                    admitted_sum += a;
                    prop_assert!(receipt.remaining >= 0.0);
                    prop_assert!(receipt.spent <= total + 1e-9 + 1e-12 * total);
                }
                Err(CoreError::BudgetExhausted { spent, requested, .. }) => {
                    // The rejection is exact and mutation-free.
                    prop_assert!(spent + requested > total + 1e-9 + 1e-12 * total);
                    prop_assert!((ledger.spent("t").unwrap() - before).abs() == 0.0);
                    exhausted_at.get_or_insert(i);
                }
                Err(other) => prop_assert!(false, "unexpected error {other:?}"),
            }
            // Invariants hold after every attempt, admitted or not.
            let spent = ledger.spent("t").unwrap();
            let remaining = ledger.remaining("t").unwrap();
            prop_assert!(spent >= 0.0 && remaining >= 0.0);
            prop_assert!(spent <= total + 1e-9 + 1e-12 * total);
            prop_assert!((spent - admitted_sum).abs() < 1e-9);
        }
        // Once the account cannot cover a repeat of a rejected request,
        // retrying that exact request keeps failing (no admission after
        // exhaustion by replay).
        if let Some(i) = exhausted_at {
            let a = attempts[i];
            if ledger.remaining("t").unwrap() < a * (1.0 - 1e-9) {
                prop_assert!(ledger.charge("t", "retry", Epsilon::new(a).unwrap()).is_err());
            }
        }
    }

    #[test]
    fn service_fits_inherit_ledger_exactness(n_fits in 1usize..6) {
        // End-to-end: n admitted service fits charge exactly n·ε.
        let eps = 0.15;
        let service = Service::new();
        service
            .add_tenant(TenantConfig {
                id: "t".to_string(),
                graph: PolicyGraph::line(16).unwrap(),
                eps: Epsilon::new(eps).unwrap(),
                budget: Epsilon::new(1.0).unwrap(),
                data: DataVector::new(Domain::one_dim(16), vec![2.0; 16]).unwrap(),
            })
            .unwrap();
        let spec = MechanismSpec::Line(TreeEstimator::Laplace);
        for i in 0..n_fits {
            let receipt = service
                .fit("t", Some(spec), Task::Histogram, i as u64, "h")
                .unwrap();
            prop_assert_eq!(receipt.amount, eps);
        }
        let account = service.ledger().snapshot("t").unwrap();
        prop_assert!((account.spent - eps * n_fits as f64).abs() < 1e-9);
        prop_assert_eq!(account.charges, n_fits);
    }
}

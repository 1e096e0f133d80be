//! Service-layer tour: one multi-tenant, budget-metered [`Service`]
//! serving two tenants with different policies against one shared plan
//! cache and one privacy ledger.
//!
//! * **payroll** — a salary histogram under the line policy `G¹_16`,
//!   with a lifetime budget of ε = 1.0 and a 0.4 per-release grant: the
//!   third release overdraws the account and is rejected with the typed
//!   `BudgetExhausted` error (the first two releases stay answerable).
//! * **mobility** — an 8×8 location grid under the grid policy
//!   `G¹_{k²}`, with budget to spare.
//!
//! Requests are interleaved to show that tenants are isolated: payroll
//! exhausting its budget never affects mobility's account.
//!
//! Run with: `cargo run --release --example service_quickstart`

use blowfish_privacy::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let service = Service::new();

    // --- Onboard two tenants with their private data and budgets.
    let salary: Vec<f64> = vec![
        5., 9., 14., 21., 30., 41., 33., 25., 18., 12., 8., 5., 3., 2., 1., 1.,
    ];
    service.add_tenant(TenantConfig {
        id: "payroll".into(),
        graph: PolicyGraph::line(16)?,
        eps: Epsilon::new(0.4)?,
        budget: Epsilon::new(1.0)?, // admits two 0.4 releases, not three
        data: DataVector::new(Domain::one_dim(16), salary)?,
    })?;
    let grid = Domain::square(8);
    let visits: Vec<f64> = (0..64).map(|i| ((i * 7) % 11) as f64).collect();
    service.add_tenant(TenantConfig {
        id: "mobility".into(),
        graph: PolicyGraph::distance_threshold(grid.clone(), 1)?,
        eps: Epsilon::new(0.5)?,
        budget: Epsilon::new(4.0)?,
        data: DataVector::new(grid.clone(), visits)?,
    })?;

    // --- The planner picks each tenant's paper-recommended strategy.
    for (tenant, task) in [("payroll", Task::Range1d), ("mobility", Task::Range2d)] {
        let spec = service.plan(tenant, task)?;
        println!(
            "{tenant:>9}: planner recommends {} ({})",
            spec.id(),
            spec.label()
        );
    }

    // --- Interleaved fits and answers across the two tenants.
    for (tenant, task, seed, handle) in [
        ("payroll", Task::Range1d, 1, "q1"),
        ("mobility", Task::Range2d, 2, "week1"),
        ("payroll", Task::Range1d, 3, "q2"),
        ("mobility", Task::Range2d, 4, "week2"),
    ] {
        let charge = service.fit(tenant, None, task, seed, handle)?;
        println!(
            "{tenant:>9}: released {handle:<6} charged ε={:.2}, ε remaining {:.2}",
            charge.amount, charge.remaining
        );
    }

    // Ranges are inclusive `(lo, hi)` bounds, one entry per dimension.
    let halves = [(&[0][..], &[7][..]), (&[8][..], &[15][..])];
    let values = service.answer("payroll", "q1", halves.into_iter())?;
    println!(
        "  payroll: q1 lower/upper halves ≈ {:.1} / {:.1}",
        values[0], values[1]
    );
    let block = [(&[2, 2][..], &[5, 5][..])];
    let values = service.answer("mobility", "week2", block.into_iter())?;
    println!(" mobility: downtown 4×4 block ≈ {:.1} visits", values[0]);

    // --- The third payroll release overdraws ε = 1.0: typed rejection.
    let rejected = service
        .fit("payroll", None, Task::Range1d, 5, "q3")
        .expect_err("the third 0.4 release must not fit in a 1.0 budget");
    assert!(rejected.is_budget_exhausted());
    println!("  payroll: third release rejected — {rejected}");

    // Isolation: mobility's account is untouched by payroll's exhaustion.
    let charge = service.fit(
        "mobility",
        Some(MechanismSpec::Grid),
        Task::Range2d,
        6,
        "week3",
    )?;
    println!(
        " mobility: still serving, ε remaining {:.2}",
        charge.remaining
    );

    // Earlier payroll releases stay answerable after exhaustion — the
    // budget meters *new* releases, not queries against old ones.
    let values = service.answer("payroll", "q2", [(&[4][..], &[6][..])].into_iter())?;
    println!(
        "  payroll: q2 still answerable post-exhaustion ({:.1})",
        values[0]
    );

    let builds = service.cache().stats().total_builds();
    println!("--- ledger ({builds} shared artifacts built) ---");
    for t in service.stats(None)? {
        println!(
            "{:>9}: {} — spent ε={:.2}, remaining ε={:.2}, {} releases, {} stored estimates",
            t.id, t.policy, t.spent, t.remaining, t.fits, t.estimates
        );
    }
    Ok(())
}

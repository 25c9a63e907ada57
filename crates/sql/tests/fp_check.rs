//! A guard read through the cursor variable's qualifier (`t.Salary`) must
//! land in the statement footprint exactly like the unqualified read
//! (`Salary`): netting, shard certification and executor-cache
//! invalidation all consume these read sets.

use receivers_sql::footprint;
use receivers_sql::parser::parse;

#[test]
fn qualified_guard_read_is_recorded() {
    let (es, catalog) = receivers_sql::catalog::employee_catalog();
    // Unqualified: read recorded.
    let unq = footprint(
        &parse(
            "for each t in Employee do if Salary in table Fire update t set Manager = \
             (select E1.Manager from Employee E1 where E1.EmpId = EmpId)",
        )
        .unwrap(),
        &catalog,
    );
    // Cursor-var-qualified: same statement, guard reads t.Salary.
    let qual = footprint(
        &parse(
            "for each t in Employee do if t.Salary in table Fire update t set Manager = \
             (select E1.Manager from Employee E1 where E1.EmpId = t.EmpId)",
        )
        .unwrap(),
        &catalog,
    );
    assert!(unq.reads.contains(&es.salary));
    assert_eq!(
        unq.reads.contains(&es.salary),
        qual.reads.contains(&es.salary)
    );
    assert_eq!(unq.reads, qual.reads);
}

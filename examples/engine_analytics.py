#!/usr/bin/env python
"""The bundled relational engine as a standalone tool.

The substrate built for SSJoin is a usable micro-database: catalog, plan
nodes, SQL front end, EXPLAIN. This example loads the synthetic customer
data and answers ordinary analytics questions two equivalent ways — a
plan-node tree built by hand and SQL — showing they agree.

Run:  python examples/engine_analytics.py
"""

from repro.data.customers import CustomerConfig, generate_customers
from repro.relational import (
    Catalog,
    GroupBy,
    Limit,
    OrderBy,
    Relation,
    TableScan,
    agg_count,
    explain,
)
from repro.relational.sql import execute_sql


def main() -> None:
    rows = generate_customers(CustomerConfig(num_rows=400, seed=17))
    records = [
        (name, address, address.split()[-3], address.split()[-2])
        for name, address in rows
    ]
    catalog = Catalog()
    catalog.register(
        "customers",
        Relation.from_rows(["name", "address", "city", "state"], records),
    )

    print("== Q: customers per state (top 5) — two equivalent ways ==\n")

    # 1. A plan-node tree, built by hand.
    plan = Limit(
        OrderBy(
            GroupBy(TableScan("customers"), ["state"], [agg_count("n")]),
            [("n", "desc"), "state"],
        ),
        5,
    )
    by_plan = list(plan.execute(catalog).rows)
    print("plan nodes :", by_plan)

    # 2. SQL, which the compiler lowers to the same kind of tree.
    sql = ("SELECT state, COUNT(*) AS n FROM customers "
           "GROUP BY state ORDER BY n DESC, state LIMIT 5")
    by_sql = list(execute_sql(catalog, sql).rows)
    print("sql        :", by_sql)
    assert by_plan == by_sql

    print("\n== EXPLAIN of the hand-built plan ==")
    print(explain(plan))

    print("\n== Q: cities with multiple distinct customer names ==")
    out = execute_sql(
        catalog,
        "SELECT city, COUNT(*) AS residents FROM customers "
        "GROUP BY city HAVING COUNT(*) >= 10 ORDER BY residents DESC LIMIT 5",
    )
    for city, n in out.rows:
        print(f"  {city}: {n}")

    print("\n== Q: states sharing a city name (self-join) ==")
    out = execute_sql(
        catalog,
        "SELECT DISTINCT a.state AS s1, b.state AS s2 FROM customers a "
        "JOIN customers b ON a.city = b.city "
        "WHERE a.state < b.state LIMIT 5",
    )
    for s1, s2 in out.rows:
        print(f"  {s1} and {s2}")


if __name__ == "__main__":
    main()

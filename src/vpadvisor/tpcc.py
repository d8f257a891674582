"""Built-in TPC-C benchmark instance.

Encodes the nine TPC-C v5.10.1 tables (92 columns) and the five
transaction profiles (New-Order, Payment, Order-Status, Delivery,
Stock-Level) as a placement workload:

* every query runs with frequency 1;
* a query touches 1 row per table, except queries iterated per item /
  per district or retrieving an order's lines, which touch 10;
* UPDATE statements are split into a read sub-query (the values
  retrieved) and a write sub-query (the columns stored); pure
  increments that never return the old value to the application
  (year-to-date totals, counters) appear only in the write sub-query;
* INSERT and DELETE statements write every column of the row;
* read queries list the columns the application retrieves.

Column widths in bytes come from the declared datatypes: identifiers
and row counters 4; fixed text ``char(n)`` exactly ``n``; variable text
``varchar(n)`` the rounded-up average of 1 and ``n``; signed decimals
``numeric(m[,k])`` ``ceil(m/2)+1``; timestamps 8.
"""
from __future__ import annotations

from typing import Optional, Tuple

from .fileio import instance_from_obj
from .workload import Instance

# (table, [(column, width), ...]) — widths derived as in the module docstring.
_SCHEMA: Tuple[Tuple[str, Tuple[Tuple[str, int], ...]], ...] = (
    (
        "WAREHOUSE",
        (
            ("W_ID", 4),
            ("W_NAME", 6),  # varchar(10)
            ("W_STREET_1", 11),  # varchar(20)
            ("W_STREET_2", 11),
            ("W_CITY", 11),
            ("W_STATE", 2),  # char(2)
            ("W_ZIP", 9),  # char(9)
            ("W_TAX", 3),  # numeric(4,4)
            ("W_YTD", 7),  # numeric(12,2)
        ),
    ),
    (
        "DISTRICT",
        (
            ("D_ID", 4),
            ("D_W_ID", 4),
            ("D_NAME", 6),
            ("D_STREET_1", 11),
            ("D_STREET_2", 11),
            ("D_CITY", 11),
            ("D_STATE", 2),
            ("D_ZIP", 9),
            ("D_TAX", 3),
            ("D_YTD", 7),
            ("D_NEXT_O_ID", 4),
        ),
    ),
    (
        "CUSTOMER",
        (
            ("C_ID", 4),
            ("C_D_ID", 4),
            ("C_W_ID", 4),
            ("C_FIRST", 9),  # varchar(16)
            ("C_MIDDLE", 2),
            ("C_LAST", 9),
            ("C_STREET_1", 11),
            ("C_STREET_2", 11),
            ("C_CITY", 11),
            ("C_STATE", 2),
            ("C_ZIP", 9),
            ("C_PHONE", 16),  # char(16)
            ("C_SINCE", 8),  # datetime
            ("C_CREDIT", 2),
            ("C_CREDIT_LIM", 7),  # numeric(12,2)
            ("C_DISCOUNT", 3),  # numeric(4,4)
            ("C_BALANCE", 7),
            ("C_YTD_PAYMENT", 7),
            ("C_PAYMENT_CNT", 3),  # numeric(4)
            ("C_DELIVERY_CNT", 3),
            ("C_DATA", 251),  # varchar(500)
        ),
    ),
    (
        "HISTORY",
        (
            ("H_C_ID", 4),
            ("H_C_D_ID", 4),
            ("H_C_W_ID", 4),
            ("H_D_ID", 4),
            ("H_W_ID", 4),
            ("H_DATE", 8),
            ("H_AMOUNT", 4),  # numeric(6,2)
            ("H_DATA", 13),  # varchar(24)
        ),
    ),
    (
        "NEW_ORDER",
        (
            ("NO_O_ID", 4),
            ("NO_D_ID", 4),
            ("NO_W_ID", 4),
        ),
    ),
    (
        "ORDERS",
        (
            ("O_ID", 4),
            ("O_D_ID", 4),
            ("O_W_ID", 4),
            ("O_C_ID", 4),
            ("O_ENTRY_D", 8),
            ("O_CARRIER_ID", 4),
            ("O_OL_CNT", 2),  # numeric(2)
            ("O_ALL_LOCAL", 2),  # numeric(1)
        ),
    ),
    (
        "ORDER_LINE",
        (
            ("OL_O_ID", 4),
            ("OL_D_ID", 4),
            ("OL_W_ID", 4),
            ("OL_NUMBER", 4),
            ("OL_I_ID", 4),
            ("OL_SUPPLY_W_ID", 4),
            ("OL_DELIVERY_D", 8),
            ("OL_QUANTITY", 2),
            ("OL_AMOUNT", 4),
            ("OL_DIST_INFO", 24),  # char(24)
        ),
    ),
    (
        "ITEM",
        (
            ("I_ID", 4),
            ("I_IM_ID", 4),
            ("I_NAME", 13),  # varchar(24)
            ("I_PRICE", 4),  # numeric(5,2)
            ("I_DATA", 26),  # varchar(50)
        ),
    ),
    (
        "STOCK",
        (
            ("S_I_ID", 4),
            ("S_W_ID", 4),
            ("S_QUANTITY", 3),
            ("S_DIST_01", 24),
            ("S_DIST_02", 24),
            ("S_DIST_03", 24),
            ("S_DIST_04", 24),
            ("S_DIST_05", 24),
            ("S_DIST_06", 24),
            ("S_DIST_07", 24),
            ("S_DIST_08", 24),
            ("S_DIST_09", 24),
            ("S_DIST_10", 24),
            ("S_YTD", 5),  # numeric(8)
            ("S_ORDER_CNT", 3),
            ("S_REMOTE_CNT", 3),
            ("S_DATA", 26),
        ),
    ),
)

_DISTS = tuple(f"S_DIST_{i:02d}" for i in range(1, 11))

# Transaction profiles: (name, [(query name, kind, columns, rows), ...]).
# ``rows`` is the per-table row count for every table the query touches.
_PROFILES: Tuple[Tuple[str, Tuple[Tuple[str, str, Tuple[str, ...], int], ...]], ...] = (
    (
        "NewOrder",
        (
            ("no_read_warehouse", "read", ("W_TAX",), 1),
            ("no_read_district", "read", ("D_TAX", "D_NEXT_O_ID"), 1),
            ("no_bump_district", "write", ("D_NEXT_O_ID",), 1),
            ("no_read_customer", "read", ("C_DISCOUNT", "C_LAST", "C_CREDIT"), 1),
            (
                "no_insert_order",
                "write",
                (
                    "O_ID",
                    "O_D_ID",
                    "O_W_ID",
                    "O_C_ID",
                    "O_ENTRY_D",
                    "O_CARRIER_ID",
                    "O_OL_CNT",
                    "O_ALL_LOCAL",
                ),
                1,
            ),
            ("no_insert_new_order", "write", ("NO_O_ID", "NO_D_ID", "NO_W_ID"), 1),
            ("no_read_items", "read", ("I_PRICE", "I_NAME", "I_DATA"), 10),
            ("no_read_stock", "read", ("S_QUANTITY",) + _DISTS + ("S_DATA",), 10),
            (
                "no_update_stock",
                "write",
                ("S_QUANTITY", "S_YTD", "S_ORDER_CNT", "S_REMOTE_CNT"),
                10,
            ),
            (
                "no_insert_order_lines",
                "write",
                (
                    "OL_O_ID",
                    "OL_D_ID",
                    "OL_W_ID",
                    "OL_NUMBER",
                    "OL_I_ID",
                    "OL_SUPPLY_W_ID",
                    "OL_DELIVERY_D",
                    "OL_QUANTITY",
                    "OL_AMOUNT",
                    "OL_DIST_INFO",
                ),
                10,
            ),
        ),
    ),
    (
        "Payment",
        (
            ("pay_bump_warehouse", "write", ("W_YTD",), 1),
            (
                "pay_read_warehouse",
                "read",
                ("W_NAME", "W_STREET_1", "W_STREET_2", "W_CITY", "W_STATE", "W_ZIP"),
                1,
            ),
            ("pay_bump_district", "write", ("D_YTD",), 1),
            (
                "pay_read_district",
                "read",
                ("D_NAME", "D_STREET_1", "D_STREET_2", "D_CITY", "D_STATE", "D_ZIP"),
                1,
            ),
            (
                "pay_read_customer",
                "read",
                (
                    "C_FIRST",
                    "C_MIDDLE",
                    "C_LAST",
                    "C_STREET_1",
                    "C_STREET_2",
                    "C_CITY",
                    "C_STATE",
                    "C_ZIP",
                    "C_PHONE",
                    "C_SINCE",
                    "C_CREDIT",
                    "C_CREDIT_LIM",
                    "C_DISCOUNT",
                    "C_BALANCE",
                ),
                1,
            ),
            ("pay_read_customer_data", "read", ("C_DATA",), 1),
            (
                "pay_update_customer",
                "write",
                ("C_BALANCE", "C_YTD_PAYMENT", "C_PAYMENT_CNT", "C_DATA"),
                1,
            ),
            (
                "pay_insert_history",
                "write",
                (
                    "H_C_ID",
                    "H_C_D_ID",
                    "H_C_W_ID",
                    "H_D_ID",
                    "H_W_ID",
                    "H_DATE",
                    "H_AMOUNT",
                    "H_DATA",
                ),
                1,
            ),
        ),
    ),
    (
        "OrderStatus",
        (
            ("os_read_customer", "read", ("C_BALANCE", "C_FIRST", "C_MIDDLE", "C_LAST"), 1),
            ("os_read_order", "read", ("O_ID", "O_ENTRY_D", "O_CARRIER_ID"), 1),
            (
                "os_read_order_lines",
                "read",
                (
                    "OL_I_ID",
                    "OL_SUPPLY_W_ID",
                    "OL_QUANTITY",
                    "OL_AMOUNT",
                    "OL_DELIVERY_D",
                ),
                10,
            ),
        ),
    ),
    (
        "Delivery",
        (
            ("dl_read_new_order", "read", ("NO_O_ID",), 10),
            ("dl_delete_new_order", "write", ("NO_O_ID", "NO_D_ID", "NO_W_ID"), 10),
            ("dl_read_order", "read", ("O_C_ID",), 10),
            ("dl_update_order", "write", ("O_CARRIER_ID",), 10),
            ("dl_update_order_lines", "write", ("OL_DELIVERY_D",), 10),
            ("dl_sum_order_lines", "read", ("OL_AMOUNT",), 10),
            ("dl_update_customer", "write", ("C_BALANCE", "C_DELIVERY_CNT"), 10),
        ),
    ),
    (
        "StockLevel",
        (
            ("sl_read_district", "read", ("D_NEXT_O_ID",), 1),
            ("sl_read_order_lines", "read", ("OL_I_ID",), 10),
            ("sl_read_stock", "read", ("S_QUANTITY",), 10),
        ),
    ),
)


def tpcc(
    site_count: int = 2,
    network_penalty: float = 8.0,
    cost_weight: float = 0.1,
    latency_penalty: Optional[float] = None,
) -> Instance:
    """The TPC-C placement instance: 9 tables, 92 attributes, 5
    transactions.  Constant — repeated calls build equal instances.

    The instance is built from its document by
    :func:`~vpadvisor.fileio.instance_from_obj`, which validates it.
    """
    table_of = {col: tname for tname, cols in _SCHEMA for col, _ in cols}
    config = {"sites": site_count, "p": network_penalty, "lambda": cost_weight}
    if latency_penalty is not None:
        config["p_latency"] = latency_penalty
    return instance_from_obj({
        "tables": [
            {"name": tname, "attributes": [{"name": c, "width": w} for c, w in cols]}
            for tname, cols in _SCHEMA
        ],
        "transactions": [
            {"name": xname, "queries": [
                {
                    "name": qname,
                    "kind": kind,
                    "frequency": 1.0,
                    # in schema order, as lint reports the first match
                    "rows": {tname: rows for tname, _ in _SCHEMA
                             if any(table_of[c] == tname for c in cols)},
                    "attributes": [f"{table_of[c]}.{c}" for c in cols],
                }
                for qname, kind, cols, rows in profile
            ]}
            for xname, profile in _PROFILES
        ],
        "config": config,
    })

"""Every answer of the stage checks, pinned by one digest.

The table holds, for the sphere, Z and F_p with p = 2, 3, 5, 7, 11 and
1000003: each ring's separably_closed and burnside_unit flags, the
(ok, rule, convention) of check_ic and check_rc at every Weyl order
1..400, and the failures that witness_nonstandard lists on eight small
groups.  The digest was recorded when the descriptor still held one
callable per question, so a rewrite of the descriptor or of the checks
that changes any verdict or any word of a reason fails here.
"""

import hashlib
import json

from equisep.conditions import check_ic, check_rc, integers, prime_field, sphere
from equisep.group_core import make_group
from equisep.witness import witness_nonstandard

RINGS = (sphere(), integers()) + tuple(
    prime_field(p) for p in (2, 3, 5, 7, 11, 1000003))
GROUPS = ("C1", "C2", "C6", "C12", "C30", "S3", "A4", "D5")
WEYL_ORDERS = range(1, 401)
DIGEST = "a5bf89d88ea66a2749b7e15e8c656c5199d4980994848aad8af353bd84b034ac"


def check_table() -> list:
    rows = []
    groups = [make_group(spec) for spec in GROUPS]
    for ring in RINGS:
        rows.append([ring.name, "flags", ring.separably_closed,
                     ring.burnside_unit])
        for n in WEYL_ORDERS:
            for check in (check_ic, check_rc):
                res = check(ring, n)
                rows.append([ring.name, check.__name__, n, res.ok, res.rule,
                             res.convention])
        for spec, g in zip(GROUPS, groups):
            rows.append([ring.name, "witness", spec,
                         list(witness_nonstandard(g, ring).failures)])
    return rows


def test_check_table_digest():
    rows = check_table()
    assert len(rows) == len(RINGS) * (1 + 2 * len(WEYL_ORDERS) + len(GROUPS))
    text = json.dumps(rows, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == DIGEST

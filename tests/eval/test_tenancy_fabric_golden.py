"""Golden digests of the multitenant and netsweep evaluation payloads.

The tenancy schedulers, the router and the interface's STATUS upkeep
are tuned for speed; none of that may change what the sections report.
Each digest below is the sha256 of a section payload (``json.dumps``
with sorted keys) captured before that tuning:

* ``multitenant_quick`` — all three policies at the reduced scale of
  ``tests/eval/test_multitenant.py`` (96 tenants, 4.5k-cycle horizon);
* ``multitenant_512`` — all three policies at the study's full 512
  tenants over a short horizon, where the per-node decisions choose
  among hundreds of PINs;
* ``netsweep_smoke`` — the default (CI smoke) topology x routing x load
  grid.

A one-cycle drift in a scheduling decision, a router's occupancy or a
STATUS field that software reads changes a digest.

Re-pin only for a change that is *meant* to alter a section's output,
and justify the new digests in CHANGES.md.  Print the current digests
with::

    PYTHONPATH=src python tests/eval/test_tenancy_fabric_golden.py
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.eval.multitenant import compute_multitenant, multitenant_params
from repro.eval.netsweep import compute_netsweep, netsweep_params
from repro.exp.spec import EvalOptions

#: The reduced-scale overrides of tests/eval/test_multitenant.py.
QUICK = dict(n_tenants=96, gen_window=3000, horizon=4500, worst_rows=4)

#: Full population, short horizon.
FULL_POPULATION_SHORT = dict(gen_window=2000, horizon=3000)

GOLDEN = {
    "multitenant_quick": "1853dd8076afd47512527be31ef08974c7199bf97d8396a84a729d98070ffda4",
    "multitenant_512": "ccfea295f71f07774b1f75e16228e88fe357f1895ce3356ac28c1904a676b2bb",
    "netsweep_smoke": "ef8d45731031b40919992fe4a30e3bffa68d470ea2040cb48c9a61c201df9230",
}


def _digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def multitenant_digest(overrides) -> str:
    params = multitenant_params(EvalOptions())
    params.update(overrides)
    return _digest(compute_multitenant(params))


def netsweep_digest() -> str:
    return _digest(compute_netsweep(netsweep_params(EvalOptions())))


DIGESTS = {
    "multitenant_quick": lambda: multitenant_digest(QUICK),
    "multitenant_512": lambda: multitenant_digest(FULL_POPULATION_SHORT),
    "netsweep_smoke": netsweep_digest,
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_section_payload_matches_golden(name):
    assert DIGESTS[name]() == GOLDEN[name]


if __name__ == "__main__":
    for key, compute in DIGESTS.items():
        print(f'    "{key}": "{compute()}",')

"""How many solves against the game's factor each local query makes.

GameSpec.solve is wrapped to record the number of right-hand-side columns of
each call. A structural or hybrid effect reads its per-node change through
the columns its local system already solved, so it makes one solve; queries
that read only M on a few nodes (intercentrality, existing and potential
links, avoidance blocks) take GameSpec.block's forward solve and make none.
"""

import numpy as np
import pytest

from netsurgeon import (
    CharacteristicIntervention,
    GameSpec,
    NodeSet,
    avoidance_block,
    certify,
    characteristic_effect,
    hybrid_effect,
    intercentrality,
    link_value_existing,
    link_value_potential,
    structural_effect,
)

from .conftest import eig_lambda_max
from .test_whatif_equivalence import changed, random_change, seeded_net


@pytest.fixture(scope="module", params=["unit", "weighted"])
def game(request):
    net = seeded_net("er", 150, 7)
    rng = np.random.default_rng(8)
    changes = [random_change(rng, net, count) for count in (1, 2, 3)]
    lam = max([eig_lambda_max(net)] + [eig_lambda_max(changed(net, iv)) for iv in changes])
    theta = None if request.param == "unit" else rng.uniform(0.5, 1.5, size=net.n)
    spec = certify(net, 0.6 / lam, theta)
    spec.b, spec.b_unit  # the cached centralities, solved before counting
    return spec, changes, rng


@pytest.fixture
def solves(monkeypatch):
    """The column counts of every GameSpec.solve call, in call order."""
    calls = []
    solve = GameSpec.solve

    def counted(self, rhs):
        calls.append(1 if np.ndim(rhs) == 1 else np.shape(rhs)[1])
        return solve(self, rhs)

    monkeypatch.setattr(GameSpec, "solve", counted)
    return calls


def test_structural_effect_solves_once_for_its_support(game, solves):
    spec, changes, _ = game
    for iv in changes:
        solves.clear()
        structural_effect(spec, iv)
        assert solves == [len(iv.support())]


def test_hybrid_effect_solves_once_for_its_support_and_the_shift(game, solves):
    # [E_S, dtheta]: |S| + 1 columns, never more than |S u D| + 1 for D the
    # shift's support, and fewer than |S u D| once D reaches two nodes off S.
    spec, changes, rng = game
    for iv in changes:
        for count in (1, 2, 5):
            dtheta = np.zeros(spec.n)
            dtheta[rng.choice(spec.n, size=count, replace=False)] = rng.uniform(-0.5, 0.5, count)
            solves.clear()
            hybrid_effect(spec, iv, CharacteristicIntervention(dtheta))
            assert solves == [len(iv.support()) + 1]


def test_block_readers_make_no_solve(game, solves):
    spec, _, rng = game
    nodes = [int(i) for i in rng.choice(spec.n, size=5, replace=False)]
    intercentrality(spec, NodeSet.of(nodes[:3]))
    avoidance_block(spec, NodeSet.of(nodes[:2]), NodeSet.of(nodes[2:]))
    if spec.theta_is_ones():
        net = spec.network
        (rows, cols), labels = net.links, net.labels
        link_value_existing(spec, labels[rows[0]], labels[cols[0]])
        absent = next(j for j in range(1, net.n) if not net.has_link(0, j))
        link_value_potential(spec, labels[0], labels[absent])
    assert solves == []


def test_characteristic_effect_solves_once(game, solves):
    spec, _, rng = game
    dtheta = np.zeros(spec.n)
    dtheta[rng.choice(spec.n, size=3, replace=False)] = 0.25
    characteristic_effect(spec, CharacteristicIntervention(dtheta))
    assert solves == [1]

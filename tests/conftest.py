import pytest

from monact import harness
from monact.act import Act, regular_act, validate_act
from monact.monoid import Monoid, validate_monoid, zmod_mult_monoid


@pytest.fixture
def forced_flags(monkeypatch):
    """forced_flags({FLAG: pred}) replaces `harness.flag` for the test: a
    flag named there holds for a group of acts iff pred holds on each of
    them, and the others stay True.  A key outside `harness.FLAGS` is
    refused: a misspelt one would leave every flag True and the mutation
    it stands for untested."""

    def install(preds):
        unknown = sorted(set(preds) - set(harness.FLAGS))
        if unknown:
            raise ValueError(f"forced flags name no flag in {harness.FLAGS}: {unknown}")
        monkeypatch.setattr(
            harness, "flag",
            lambda name, acts: all(map(preds[name], acts)) if name in preds else True)

    return install


@pytest.fixture
def m2():
    """Two-element monoid {1, e} with e*e = e."""
    return validate_monoid(2, [[0, 1], [1, 1]])


@pytest.fixture
def a2(m2):
    """Two-element act {x, y} with x*e = y, y*e = y."""
    return validate_act(m2, 2, [[0, 1], [1, 1]])


@pytest.fixture
def z4():
    """Residues mod 4 under multiplication, identity relabeled to 0."""
    return zmod_mult_monoid(4)


@pytest.fixture
def reg_z4(z4):
    return regular_act(z4)


@pytest.fixture
def trivial():
    return Monoid(1, ((0,),), (0,))


@pytest.fixture
def singleton(trivial):
    return Act(trivial, 1, ((0,),))

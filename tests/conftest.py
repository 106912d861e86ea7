import numpy as np
import pytest

from pam1d.potential import Field, LowerTailSpec, PotentialSpec


@pytest.fixture
def atom_spec():
    """gamma = 0 mixture: atom at 0 (light) + exp-Pareto heavy branch."""
    return PotentialSpec(gamma=0.0, mix_q=0.2,
                         lower=LowerTailSpec.pareto(1.0), atom_p=0.5)


@pytest.fixture
def frechet_spec():
    """gamma = 1/2 mixture: Frechet light branch + exp-Pareto heavy branch."""
    return PotentialSpec(gamma=0.5, mix_q=0.2,
                         lower=LowerTailSpec.pareto(1.0), frechet_d=1.0)


@pytest.fixture
def bounded_spec():
    """Control case with all log-moments finite (W uniform on [0, 3])."""
    return PotentialSpec(gamma=0.0, mix_q=0.2,
                         lower=LowerTailSpec.bounded(3.0), atom_p=0.5)


def make_spec(gamma: float, zeta: float, mix_q: float = 0.2,
              atom_p: float = 0.5, frechet_d: float = 1.0) -> PotentialSpec:
    lower = LowerTailSpec.pareto(zeta)
    if gamma == 0.0:
        return PotentialSpec(gamma=gamma, mix_q=mix_q, lower=lower,
                             atom_p=atom_p)
    return PotentialSpec(gamma=gamma, mix_q=mix_q, lower=lower,
                         frechet_d=frechet_d)


def xi_field(lo: int, xi) -> Field:
    """A Field on [lo, lo + len(xi) - 1] with the given values xi <= 0."""
    with np.errstate(divide="ignore"):
        log_neg_xi = np.log(-np.asarray(xi, dtype=float))
    return Field(lo=lo, hi=lo + len(log_neg_xi) - 1, log_neg_xi=log_neg_xi)


def zero_field(lo: int, hi: int) -> Field:
    """A Field with xi identically 0 on [lo, hi]."""
    return Field(lo=lo, hi=hi, log_neg_xi=np.full(hi - lo + 1, -np.inf))


def constant_field(lo: int, hi: int, value: float) -> Field:
    """A Field with constant value xi = value <= 0 on [lo, hi]."""
    return xi_field(lo, np.full(hi - lo + 1, float(value)))


def _spec_text(gamma="0.0", upper='{"atom_p":0.5}', mix_q="0.2",
               lower='{"pareto_zeta":1.0}') -> str:
    return (f'{{"gamma":{gamma},"upper":{upper},"mix_q":{mix_q},'
            f'"lower":{lower}}}')


# Spec JSON that must be rejected with a ValueError naming the field: a
# parameter that is not a number, one that is NaN or +-inf, and lower-tail
# keys that name no one family.
BAD_SPEC_JSON = {
    "upper-number": (_spec_text(upper="5"), "upper"),
    "upper-array": (_spec_text(upper='["atom_p"]'), "upper"),
    "lower-string": (_spec_text(lower='"pareto_zeta"'), "lower"),
    "gamma-null": (_spec_text(gamma="null"), "gamma"),
    "gamma-bool": (_spec_text(gamma="false"), "gamma"),
    "mix_q-string": (_spec_text(mix_q='"0.2"'), "mix_q"),
    "gamma-huge-int": (_spec_text(gamma="1" + "0" * 400), "gamma"),
    "zeta-array": (_spec_text(lower='{"pareto_zeta":[1]}'), "pareto_zeta"),
    "wmax-object": (_spec_text(lower='{"bounded_wmax":{}}'), "bounded_wmax"),
    "frechet_d-nan": (_spec_text(gamma="0.5", upper='{"frechet_d":NaN}'),
                      "frechet_d"),
    "frechet_d-inf": (_spec_text(gamma="0.5", upper='{"frechet_d":Infinity}'),
                      "frechet_d"),
    "atom_p-nan": (_spec_text(upper='{"atom_p":NaN}', mix_q="1.0"), "atom_p"),
    "wmax-inf": (_spec_text(lower='{"bounded_wmax":Infinity}'), "wmax"),
    "theta-nan": (_spec_text(lower='{"loglog_theta":NaN}'), "theta"),
    "x0-inf": (_spec_text(lower='{"loglog_theta":1.0,"loglog_x0":Infinity}'),
               "x0"),
    "pareto-and-bounded": (_spec_text(lower='{"pareto_zeta":1,"bounded_wmax":2}'),
                           "unrecognized lower-tail fields"),
    "loglog-and-pareto": (_spec_text(lower='{"loglog_theta":1,"pareto_zeta":1}'),
                          "unrecognized lower-tail fields"),
    "x0-alone": (_spec_text(lower='{"loglog_x0":3}'),
                 "unrecognized lower-tail fields"),
    "lower-empty": (_spec_text(lower='{}'), "unrecognized lower-tail fields"),
}

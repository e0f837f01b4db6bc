"""Run-level fuzz through ``cli.main``: every config command, on small valid
configs of every class kind, law, selection and method with a few keys
mutated, and with the run flags, exits 0, 2, 3 or 4, and no exception leaves
``cli.main``. Exit 2 comes only from a ``DomainError`` or an ``OSError``, so
a foreign exception (a numpy ``ValueError`` among them) fails this test
rather than passing as an input error. Sizes are capped in the strategies:
n <= 2^12, reps <= 2, meshes of at most 64 points, at most 4 blocks.
"""

import copy
import functools
import json
import math
import operator

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from empbridge.cli import EXIT_CHECK, EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, main

unit = st.floats(0.0, 1.0)
positive = st.floats(0.25, 4.0)
small_ints = st.integers(1, 8)


def increasing(values, max_size):
    return st.lists(values, min_size=1, max_size=max_size, unique=True).map(sorted)


def regime():
    return st.one_of(
        st.fixed_dictionaries({"type": st.just("vc"), "c0": positive, "nu0": positive}),
        st.fixed_dictionaries({"type": st.just("br"), "b0": positive, "r0": st.floats(0.05, 0.95)}),
    )


def law(dim):
    """A law on [0,1]^dim: product-uniform or discrete, and in one dimension
    uniform or beta too. Discrete weights of 1/k for k a power of 2 sum to 1
    exactly."""
    point = unit if dim == 1 else st.lists(unit, min_size=dim, max_size=dim)
    discrete = st.sampled_from([1, 2, 4]).flatmap(
        lambda k: st.fixed_dictionaries({
            "kind": st.just("discrete"),
            "atoms": st.lists(point, min_size=k, max_size=k),
            "weights": st.just([1.0 / k] * k),
        })
    )
    laws = [st.just({"kind": "product-uniform", "dim": dim}), discrete]
    if dim == 1:
        laws += [
            st.just({"kind": "uniform"}),
            st.fixed_dictionaries({"kind": st.just("beta"), "a": positive, "b": positive}),
        ]
    return st.one_of(laws)


def function_class(dim):
    """A class whose members match a law of ``dim``: intervals and Hoelder
    classes take dim 1 only."""
    corner = unit if dim == 1 else st.lists(unit, min_size=dim, max_size=dim)
    member = st.one_of(
        st.tuples(st.just("rectangle" if dim > 1 else "interval"), corner).map(list),
        st.tuples(st.just("constant"), st.floats(-0.5, 0.5)).map(list),
    )
    common = {"M": st.floats(1.0, 4.0)}
    kinds = [
        st.fixed_dictionaries(
            {"kind": st.just("rectangles"), "dim": st.just(dim), "mesh_size": st.integers(1, 27)},
            optional=common,
        ),
        st.fixed_dictionaries(
            {"kind": st.just("finite"), "members": st.lists(member, min_size=1, max_size=4)},
            optional={**common, "regime": regime()},
        ),
    ]
    if dim == 1:
        kinds += [
            st.fixed_dictionaries(
                {"kind": st.just("intervals"), "mesh_size": st.integers(1, 64)},
                optional={**common, "regime": regime()},
            ),
            st.fixed_dictionaries(
                {"kind": st.just("holder"), "mesh_size": st.integers(1, 16)},
                optional={
                    **common, "s": st.floats(0.1, 1.0), "R": positive,
                    "knots": st.integers(2, 9), "mesh_seed": st.integers(0, 2**32),
                },
            ),
        ]
    return st.one_of(kinds)


@st.composite
def class_and_law(draw):
    dim = draw(st.sampled_from([1, 1, 2, 3]))
    return {"class": draw(function_class(dim)), "distribution": draw(law(dim))}


def coupling_keys(reps):
    keys = {
        "selection": regime(),
        "n_grid": increasing(st.integers(1, 2**12), 3),
        "ot_batch": st.integers(1, 16),
        "method": st.sampled_from([None, "exact", "quantile"]),
        "eval_mesh_size": st.integers(1, 20),
        "gamma1": positive,
        "gamma2": positive,
    }
    if reps:
        keys |= {"reps": st.integers(1, 2), "labels": st.just({"lambda": 1.0})}
    return keys


SCHEDULE = st.fixed_dictionaries(
    {"N_grid": increasing(st.integers(1, 4), 2)},
    optional={
        "m": small_ints, "budget": st.sampled_from([10, 500_000]), "eval_mesh_size": small_ints,
        "alpha": st.sampled_from([4, 5, "11/2", 7]), "kappa": st.sampled_from([0.2, "1/3"]),
    },
)
AUDIT = st.fixed_dictionaries({}, optional={
    "n": st.integers(1, 2**12), "M": positive, "sigma2": st.floats(0.01, 1.0),
    "t_grid": increasing(st.floats(0.1, 4.0), 3), "sym_moment": positive,
    "sigma": st.floats(0.01, 1.0), "beta": positive, "v": positive, "c": positive,
    "M_sup": positive, "b0": positive, "r0": st.floats(0.05, 0.95), "epsilon": unit,
    "budget_n_grid": increasing(st.integers(1, 2**12), 3),
})


def valid(command):
    """A small config that a ``command`` run reads, its keys drawn each time."""
    if command == "bounds-audit":
        keys = {"selection": regime(), "gamma1": positive, "gamma2": positive,
                "constants": st.just({"A": 1.0}), "audit": AUDIT}
        return st.fixed_dictionaries({}, optional=keys)
    if command == "entropy":
        extra = {"entropy": st.fixed_dictionaries(
            {"radii": st.lists(st.floats(0.05, 0.95), min_size=1, max_size=4, unique=True)
             .map(lambda r: sorted(r, reverse=True))}
        )}
    elif command == "strong":
        extra = {"selection": regime(), "reps": st.integers(1, 2), "schedule": SCHEDULE}
    else:
        extra = coupling_keys(reps=command == "approx")
    return st.tuples(class_and_law(), st.fixed_dictionaries({}, optional=extra)).map(
        lambda pair: pair[0] | pair[1]
    )


# Values put in place of an entry's own: of the wrong type, out of range,
# NaN, subnormal, near the float range's ends, or past a limit.
JUNK = st.sampled_from([
    None, -1, 0, 0.5, 2.5, 5e-324, 1e-300, 1e300, 1e308, math.nan, math.inf, "x", "", [], [0],
    {}, True, 2**53, 2**64,
]).map(copy.deepcopy)  # a fresh list or object each time, never one shared with another draw


def paths(spec, prefix=()):
    """The path of every entry of ``spec``'s objects and lists, nested ones too."""
    for key, value in spec.items() if isinstance(spec, dict) else enumerate(spec):
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from paths(value, prefix + (key,))


@st.composite
def mutated(draw, command):
    """A valid ``command`` config with up to two entries set to junk or
    dropped, or one key it does not read added."""
    spec = draw(valid(command))
    for _ in range(draw(st.integers(0, 2))):
        here = list(paths(spec))
        if not here:
            break
        *parents, key = draw(st.sampled_from(here))
        try:
            target = functools.reduce(operator.getitem, parents, spec)
            target[key]
        except (KeyError, IndexError, TypeError):
            continue  # a parent was junked or dropped by an earlier mutation
        if draw(st.booleans()):
            target[key] = draw(JUNK)
        else:
            del target[key]
    if draw(st.integers(0, 9)) == 0:
        spec[draw(st.sampled_from(["reps", "schedule", "audit", "entropy", "ot_batch"]))] = 1
    return spec


@st.composite
def invocation(draw):
    command = draw(st.sampled_from(["entropy", "couple", "approx", "strong", "bounds-audit"]))
    flags = []
    if draw(st.booleans()):
        flags += ["--seed", str(draw(st.integers(0, 2**64 - 1)))]
    if draw(st.booleans()):
        flags += ["--format", draw(st.sampled_from(["csv", "json"]))]
    if draw(st.integers(0, 4)) == 0:
        flags += ["--workers", "2"]
    if draw(st.booleans()):
        flags += ["--check"]
    return command, draw(mutated(command)), flags, draw(st.booleans())


# Derandomized, so that every run checks the same 400 examples (about 4 s on
# two cores); running it without the fixed seed explores further.
@settings(
    max_examples=400, derandomize=True, deadline=None, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(invocation())
def test_every_run_exits_with_a_code_and_one_error_line(tmp_path, capsys, case):
    command, spec, flags, to_dir = case
    path = tmp_path / "config.json"
    path.write_text(json.dumps(spec))
    out = ["--out", str(tmp_path / "out")] if to_dir else []
    code = main([command, "--config", str(path), *flags, *out])
    captured = capsys.readouterr()
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERIC, EXIT_CHECK)
    if code in (EXIT_CONFIG, EXIT_NUMERIC):
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert captured.err.strip() != "error:"
    else:
        assert captured.err == ""

"""The instances, builders and helpers that more than one test module reads.

pytest collects only test_*.py; test modules import from here and never
from one another.  Each named instance has one builder, one name and one
set of data, and each call returns a fresh instance, since tests write
into the .data of the matrices they are handed.
"""

import dataclasses
import importlib.util
import pathlib
import random
from fractions import Fraction

from qminkowski.cli import main
from qminkowski.exact import Mat, ONE, Scalar, ZERO, flip
from qminkowski.instance import PoincareInstance, builtin, \
    instance_from_dict, load_instance
from qminkowski.qalgebra import NCPoly, _sub, accumulate

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load_module(name, path):
    """The Python file at ROOT / path, loaded as a module called name."""
    spec = importlib.util.spec_from_file_location(name, ROOT / path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def x(i):
    return NCPoly.gen(i)


def run(capsys, *argv):
    """(exit code, stdout, stderr) of cli.main on argv."""
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def full_reduce(q, terms, degree):
    """The reference full reduction of terms by the quotient q's rules,
    read as homogeneous of the given degree: the greatest word left is
    rewritten first, at slack degree - |w|, by the leftmost shortest lead
    that fires (q._match), until no rule applies to any word.  This is the
    scan completion ran before it worked through each degree with one
    memoised walk; it shares no memo and no order of work with the
    engine."""
    todo, out = dict(terms), {}
    while todo:
        w = max(todo, key=lambda v: (len(v), v))
        c = todo.pop(w)
        m = q._match(w, degree - len(w))
        if m is None:
            out[w] = c      # later rewrites only make smaller words
        else:
            accumulate(todo, _sub(w, *m), c)
    return out


def sign_twisted_flip():
    """R e_a (x) e_b = sigma_ab e_b (x) e_a, sigma_02 = sigma_20 = -1, else
    1: triangular like the flip, but the T-terms of the obstruction no
    longer cancel."""
    r = Mat.zeros(16, 16)
    for a in range(4):
        for b in range(4):
            sign = -ONE if {a, b} == {0, 2} else ONE
            r.data[16 * (4 * b + a) + 4 * a + b] = sign
    return r


def shifted(name, entries):
    """Classical data with the given {flat index: value} entries of T."""
    t = Mat.zeros(16, 1)
    for k, v in entries.items():
        t.data[k] = v
    return dataclasses.replace(builtin("classical"), name=name, T=t)


def twisted():
    """The sign-twisted flip with Z = T = 0."""
    return dataclasses.replace(builtin("classical"), name="twisted",
                               R=sign_twisted_flip())


def tshift():
    """T[(0,1)] = 1: a real central shift, which the star does not keep."""
    return shifted("tshift", {1: ONE})


def ishift():
    """T[(0,1)] = i: an imaginary central shift, which the star keeps."""
    return shifted("ishift", {1: Scalar(0, 1)})


def imag():
    """Two imaginary central shifts, T[(1,3)] = -3i/2 and T[(2,0)] = 2i."""
    return shifted("imag", {4 * 1 + 3: Scalar(0, Fraction(-3, 2)),
                            4 * 2 + 0: Scalar(0, 2)})


def z_perturbed():
    """Z[(0,1), 0] = 1, named zbent: a Lie-type Z entry, which obstructs."""
    z = Mat.zeros(16, 4)
    z.data[4 * 1 + 0] = ONE
    return dataclasses.replace(builtin("classical"), name="zbent", Z=z)


def twisted_tshift():
    """The sign-twisted flip with T[(0,1)] = 1: the calculus obstructs, and
    x_2 reduces to 0 in the cap-4 quotient (profile [1, 3, 6, 20, 35])."""
    return dataclasses.replace(tshift(), name="twisted-tshift",
                               R=sign_twisted_flip())


def leibniz_breaking():
    """Z[(0,3), 1] = 2 and T[(1,2)] = -1, named zt-bent: the obstruction
    vanishes, but 1 reduces to 0 in the cap-4 quotient (profile
    [0, 0, 10, 20, 35]), and the Leibniz rule fails at caps 3 and 4 while
    the other three identities hold."""
    z = Mat.zeros(16, 4)
    z.data[13] = Scalar(2)
    t = Mat.zeros(16, 1)
    t.data[6] = Scalar(-1)
    return dataclasses.replace(builtin("classical"), name="zt-bent", Z=z,
                               T=t)


MOVED = load_instance(ROOT / "instances" / "moved-twisted.json")
MEMO_INSTANCES = [builtin("classical"), tshift(), twisted(), imag(),
                  leibniz_breaking()]


def rand_instance(seed):
    rng = random.Random(seed)

    def s():
        return Scalar(Fraction(rng.randint(-2, 2), rng.randint(1, 2)))

    def m(r, c):
        return Mat.from_rows([[s() for _ in range(c)] for _ in range(r)])

    return PoincareInstance(
        name="rand%d" % seed, q=ONE, s=ONE,
        E=m(4, 1), Eprime=m(1, 4), X=flip(2, 2),
        R=m(16, 16), Z=m(16, 4), T=m(16, 1))


def perfbench_generators():
    """perfbench/instances.py, loaded as a module."""
    return load_module("perfbench_instances", "perfbench/instances.py")


def perfbench_instance(kind, seed, *args):
    """The instance that perfbench/instances.py's generator kind (dense,
    imag_shift, complex_shift, zbent) draws from seed and args."""
    doc = getattr(perfbench_generators(), kind)(
        "%s%d" % (kind, seed), random.Random(seed), *args)
    return instance_from_dict(doc)


def perfbench_dense(seed, density):
    """The benchmark's dense family: R, Z and T with the given share of
    nonzero small real rationals."""
    return perfbench_instance("dense", seed, density)


def rescaled(gs, a, b):
    """The gammas [[0, b A_i], [a sigma_i, 0]] from gs = gamma(inst) =
    [[0, A_i], [sigma_i, 0]].  The square of the Dirac operator D =
    sum_i gamma_i partial_i matches the wave operator exactly when
    a*b = 1, so a pair with a*b != 1 is a negative control."""
    out = []
    for gm in gs:
        ent = list(gm.data)
        for r in range(2):
            for c in range(2):
                ent[4 * r + c + 2] = b * ent[4 * r + c + 2]
                ent[4 * (r + 2) + c] = a * ent[4 * (r + 2) + c]
        out.append(Mat(4, 4, ent))
    return tuple(out)


def random_gammas(seed):
    """Four 4x4 gammas with small Gaussian-rational entries, most zero."""
    rng = random.Random(seed)

    def entry():
        if rng.random() < 0.6:
            return ZERO
        return Scalar(Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                      Fraction(rng.randint(-2, 2), rng.randint(1, 2)))

    return tuple(Mat(4, 4, [entry() for _ in range(16)]) for _ in range(4))


def naive_kron(a, b):
    """The Kronecker product by its definition, in index loops."""
    rows = []
    for i in range(a.rows):
        for p in range(b.rows):
            rows.append([a[i, j] * b[p, q]
                         for j in range(a.cols) for q in range(b.cols)])
    return Mat.from_rows(rows)


def per_entry_left_mul_gen(calc, i, form):
    """x_i on a one-form, one R or Z entry at a time, normalised per
    coordinate: the formula the left action of x_i had before its memo."""
    r, z = calc.inst.R, calc.inst.Z
    coords = []
    for k in range(4):
        acc = NCPoly.zero()
        for j in range(4):
            fj = form[j]
            for l in range(4):
                c = r[4 * i + j, 4 * k + l]
                if c:
                    acc = acc + (NCPoly.gen(l) * fj).scale(c)
            c = z[4 * i + j, k]
            if c:
                acc = acc + fj.scale(c)
        coords.append(calc.alg.normal_form(acc))
    return tuple(coords)

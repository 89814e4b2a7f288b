"""The integer programs' cover rows: pinned LP text over a generated
corpus, and each row held equal to a per-atom scan of every pair."""

import hashlib

import pytest

from gops import (GbgopInstance, UncoverableAtomsError, build_bmgop_ip,
                  build_gbgop_ip, emit_lp, gen_campaign, gen_random)
from gops.gbgop import _admissible, _needed, _r_star

from helpers import cover_rows_by_scan

# (width, height, actions, radius, ics): square and strip maps up to 12x12
SIZES = ((0, 0, 3, 1.0, 1), (3, 2, 3, 1.5, 2), (8, 8, 3, 3.0, 2), (12, 12, 3, 2.0, 3))


def corpus(seeds=range(40)):
    for seed in seeds:
        for width, height, actions, radius, ics in SIZES:
            for problem in ("gbgop", "bmgop"):
                yield gen_random(seed=seed, width=width, height=height, actions=actions,
                                 radius=radius, ics=ics, problem=problem)


def lp_texts(inst):
    """The LP text of every program of ``inst``; a goal-based program with
    an uncoverable atom contributes its atom list instead."""
    if not isinstance(inst, GbgopInstance):
        return [emit_lp(build_bmgop_ip(inst))]
    out = []
    for use_reduction in (False, True):
        try:
            out.append(emit_lp(build_gbgop_ip(inst, use_reduction=use_reduction)))
        except UncoverableAtomsError as err:
            out.append("uncoverable: " + ", ".join(map(str, err.atoms)) + "\n")
    return out


def test_lp_text_corpus_golden_digest():
    # Pins variable, row and coefficient order, labels and the uncoverable
    # lists of both builders; the digest is over the texts in corpus order.
    digest = hashlib.sha256()
    for inst in corpus():
        for text in lp_texts(inst):
            digest.update(text.encode())
    assert digest.hexdigest() == "d9db606cf2a8ee5e2c458b15140bd30362ddc3fe0de771e662c54cd7fd659433"


def cover_instances():
    campaign = gen_campaign()
    return [campaign.gbgop, campaign.bmgop, *corpus(range(20))]


def cover_label(a):
    return f"cover_{a.predicate}_{a.point.x}_{a.point.y}"


def cover_rows(model):
    """(label, [(variable tag, coefficient), ...]) per cover row, in order."""
    return [(c.label, [(model.variables[v].tag, co) for v, co in c.coeffs])
            for c in model.constraints if c.label.startswith("cover_")]


def test_bmgop_cover_rows_equal_the_per_atom_scan():
    for inst in cover_instances():
        if isinstance(inst, GbgopInstance):
            continue
        g = inst.grounding
        outside_s0 = ((1 << g.n_atoms) - 1) & ~g.s0_mask
        expected = cover_rows_by_scan(g.effects, range(len(g.pairs)), outside_s0, g.n_atoms)
        assert list(g.producers(range(len(g.pairs)), outside_s0).items()) == list(expected.items())
        assert cover_rows(build_bmgop_ip(inst)) == [
            (cover_label(g.atoms[a]), [(("pair", i), 1.0) for i in producers] + [(("atom", a), -1.0)])
            for a, producers in expected.items()]


def test_gbgop_cover_rows_equal_the_per_atom_scan():
    for inst in cover_instances():
        if not isinstance(inst, GbgopInstance):
            continue
        g = inst.grounding
        needed = _needed(inst)
        for use_reduction, indices in ((False, _admissible(inst)), (True, _r_star(inst)[1])):
            expected = cover_rows_by_scan(g.effects, indices, needed, g.n_atoms)
            assert list(g.producers(indices, needed).items()) == list(expected.items())
            uncoverable = [g.atoms[a] for a, producers in expected.items() if not producers]
            if uncoverable:
                with pytest.raises(UncoverableAtomsError) as err:
                    build_gbgop_ip(inst, use_reduction=use_reduction)
                assert list(err.value.atoms) == uncoverable
                continue
            assert cover_rows(build_gbgop_ip(inst, use_reduction=use_reduction)) == [
                (cover_label(g.atoms[a]), [(i, 1.0) for i in producers])
                for a, producers in expected.items()]

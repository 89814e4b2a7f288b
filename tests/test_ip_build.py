"""The integer programs' cover rows: pinned LP text over a generated
corpus, and each row held equal to a per-atom scan of every pair."""

import dataclasses
import hashlib
import random
from itertools import chain

import pytest

from gops import (ActionRule, BmgopInstance, CostModel, GbgopInstance, GridMap, IpModel,
                  IpVariable, UncoverableAtomsError, build_bmgop_ip, build_gbgop_ip, emit_lp,
                  enumerate_ground_atoms, gen_campaign, gen_random)
from gops.gbgop import _admissible, _needed, _r_star

from helpers import cover_rows_by_scan, ground, lp_name, reference_bmgop_ip

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
    # lists of both builders; each builder's digest is over its texts in
    # corpus order, so a change to one builder shows which texts moved.
    digests = {GbgopInstance: hashlib.sha256(), BmgopInstance: hashlib.sha256()}
    for inst in corpus():
        for text in lp_texts(inst):
            digests[type(inst)].update(text.encode())
    assert {kind.__name__: d.hexdigest() for kind, d in digests.items()} == {
        "GbgopInstance": "449b354f6817dc56f8e51f9f8ca7fc7e2fe5b1d070bc782808878aa5c27c1558",
        "BmgopInstance": "5ef27d423a288b57f33c2d47f1d74d303bb744d8546d12fefd46f1a1e66be820"}


def test_reference_program_keeps_the_full_shape():
    # the oracle of the presolved builder: its texts over the corpus are
    # the ones the builder wrote before it left out variables and rows
    digest = hashlib.sha256()
    for inst in corpus():
        if isinstance(inst, BmgopInstance):
            digest.update(emit_lp(reference_bmgop_ip(inst)).encode())
    assert digest.hexdigest() == "554e61a43949d84a966b7467ac6dfcceda0bbcdd706bd4e7ec64f6c8610581f9"


def cover_instances():
    campaign = gen_campaign()
    return [campaign.gbgop, campaign.bmgop, *corpus(range(20))]


def cover_label(a):
    return f"cover_{a.predicate}_{a.point.x}_{a.point.y}"


def cover_rows(model):
    """(label, [(variable tag, coefficient), ...]) per cover row, in order."""
    variables = model.variables  # the view builds every variable on each read
    return [(c.label, [(variables[v].tag, co) for v, co in c.coeffs])
            for c in model.constraints if c.label.startswith("cover_")]


def produced(scan, indices):
    """The per-atom scan limited to the atoms some pair produces, each
    producer given by its position within ``indices``."""
    position = {i: pos for pos, i in enumerate(indices)}
    return [(a, [position[i] for i in producers]) for a, producers in scan.items() if producers]


def test_bmgop_cover_rows_equal_the_per_atom_scan():
    # an X for each pair that adds an atom outside s0, a Y and a cover row
    # for each atom one of them adds, both in canonical order
    for inst in cover_instances():
        if isinstance(inst, GbgopInstance):
            continue
        g = inst.grounding
        outside_s0 = ((1 << g.n_atoms) - 1) & ~g.s0_mask
        scan = cover_rows_by_scan(g.effects, range(g.n_pairs), outside_s0, g.n_atoms)
        expected = {a: producers for a, producers in scan.items() if producers}
        kept = sorted(set(chain.from_iterable(expected.values())))
        # the dense mask, over every pair and over the kept pairs
        every = range(g.n_pairs)
        assert list(g.producers(every, outside_s0).items()) == produced(scan, every)
        assert list(g.producers(kept, outside_s0).items()) == produced(scan, kept)
        model = build_bmgop_ip(inst)
        assert [v.tag for v in model.variables] == (
            [("pair", i) for i in kept] + [("atom", a) for a in expected])
        assert cover_rows(model) == [
            (cover_label(g.atom_at(a)), [(("pair", i), 1.0) for i in producers] + [(("atom", a), -1.0)])
            for a, producers in expected.items()]


def test_gbgop_cover_rows_equal_the_per_atom_scan():
    for inst in cover_instances():
        if not isinstance(inst, GbgopInstance):
            continue
        g = inst.grounding
        needed = _needed(inst)
        for use_reduction, indices in ((False, _admissible(inst)), (True, _r_star(inst)[1])):
            expected = cover_rows_by_scan(g.effects, indices, needed, g.n_atoms)
            # the sparse mask: positions within the admissible or reduced pairs
            assert list(g.producers(indices, needed).items()) == produced(expected, indices)
            uncoverable = [g.atom_at(a) for a, producers in expected.items() if not producers]
            if uncoverable:
                with pytest.raises(UncoverableAtomsError) as err:
                    build_gbgop_ip(inst, use_reduction=use_reduction)
                assert list(err.value.atoms) == uncoverable
                continue
            assert cover_rows(build_gbgop_ip(inst, use_reduction=use_reduction)) == [
                (cover_label(g.atom_at(a)), [(i, 1.0) for i in producers])
                for a, producers in expected.items()]


@pytest.mark.parametrize("width_bound, height_bound", [(0, 5), (5, 0), (7, 2), (2, 7), (12, 3)])
def test_index_names_equal_the_object_names(width_bound, height_bound):
    # non-square and one-column maps, so names with x and y swapped differ
    grid = GridMap(width_bound, height_bound)
    actions = tuple(ActionRule(name=name, effect_predicate="p") for name in ("a", "b-c", "d"))
    g = ground(grid, ("p", "q_1"), frozenset(), actions, CostModel(), ())
    rng = random.Random(width_bound * 31 + height_bound)
    pairs = list(range(g.n_pairs))
    atoms = list(range(g.n_atoms))
    every_atom = enumerate_ground_atoms(grid, g.predicates)
    for prefix in ("X", "Y", "cover"):
        for indices in (pairs, rng.sample(pairs, len(pairs) // 2)):
            want = [lp_name(prefix, g.pair_at(i)) for i in indices]
            assert g.pair_names(prefix, indices) == want
            assert want == [lp_name(prefix, g.pairs[i]) for i in indices]
        for indices in (atoms, rng.sample(atoms, len(atoms) // 2)):
            want = [lp_name(prefix, g.atom_at(i)) for i in indices]
            assert g.atom_names(prefix, indices) == want
            assert want == [lp_name(prefix, every_atom[i]) for i in indices]


def test_variables_are_a_view_of_the_flat_names_and_tags():
    assert "variables" not in {f.name for f in dataclasses.fields(IpModel)}
    campaign = gen_campaign()
    models = [build_bmgop_ip(campaign.bmgop), build_gbgop_ip(campaign.gbgop),
              build_gbgop_ip(campaign.gbgop, use_reduction=True)]
    for model in models:
        assert model.variables == tuple(map(IpVariable, model.names, model.tags))
        assert len(model.names) == len(model.tags) > 0


def test_program_variable_names_equal_the_object_names():
    # cover labels are checked against the atom objects by the cover-row tests
    for inst in cover_instances():
        g = inst.grounding
        if isinstance(inst, GbgopInstance):
            models = []
            for use_reduction in (False, True):
                try:
                    models.append(build_gbgop_ip(inst, use_reduction=use_reduction))
                except UncoverableAtomsError:
                    pass
            for model in models:
                assert [v.name for v in model.variables] == [
                    lp_name("X", g.pairs[v.tag]) for v in model.variables]
        else:
            objects = {"pair": ("X", g.pairs),
                       "atom": ("Y", enumerate_ground_atoms(g.grid, g.predicates))}
            variables = build_bmgop_ip(inst).variables
            assert [v.name for v in variables] == [
                lp_name(objects[kind][0], objects[kind][1][i]) for kind, i in (v.tag for v in variables)]

"""The package's export list matches what its ``__init__`` imports."""

import ast
import dataclasses
import inspect
from pathlib import Path

import simpop


def _imported_public_names():
    tree = ast.parse(Path(simpop.__file__).read_text(encoding="utf-8"))
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    }


def test_all_is_exactly_the_imported_public_names():
    assert set(simpop.__all__) == _imported_public_names()
    assert len(simpop.__all__) == len(set(simpop.__all__))


def test_every_export_resolves():
    for name in simpop.__all__:
        assert getattr(simpop, name, None) is not None, name


def test_no_helper_that_only_tests_call():
    # the graph builder's co-occurrence oracle lives in tests/test_affinity.py
    from simpop import affinity, errors
    from simpop.model import EmbeddingModel
    from simpop.recommender import RankedList

    assert "UndefinedSimilarityError" not in simpop.__all__
    for owner, name in [
        (affinity, "cosine_cooccurrence"),
        (affinity, "item_session_incidence"),
        (errors, "UndefinedSimilarityError"),
        (affinity.AffinityGraph, "similarity"),
        (EmbeddingModel, "kappa_of"),
        (RankedList, "item_ids"),
    ]:
        assert not hasattr(owner, name), name


def test_one_ranking_path():
    # NextItemRecommender.rank is the proposed ranker's one entry point and
    # rank_candidates its one scorer, for a candidate list or the catalog
    from simpop import baselines, errors, recommender

    for name in ("recommend", "NoAnchorError"):
        assert name not in simpop.__all__
        assert not hasattr(simpop, name), name
    for owner, name in [
        (recommender, "recommend"),
        (recommender, "_catalog_top"),
        (errors, "NoAnchorError"),
    ]:
        assert not hasattr(owner, name), name
    assert baselines._dedupe is recommender._dedupe
    # evaluate hands every built-in ranker the test corpus itself
    from simpop import evaluator

    assert not hasattr(recommender, "SessionBatch")
    assert not hasattr(evaluator, "_code_sessions")
    # each per-item count and model row is found in one place: the corpus's
    # item_counts, the model's index, the planted world's model
    from simpop import affinity, model, synth

    assert not hasattr(affinity, "interaction_counts")
    assert not hasattr(model, "connection_probabilities")
    fields = {f.name for f in dataclasses.fields(synth.SynthWorld)}
    assert not fields & {"coords", "kappa", "ids"}
    # and order_candidates the one select-and-order step of every ranker
    assert baselines.order_candidates is recommender.order_candidates
    # a ranker owns its popularity table, and the one scorer is handed it
    assert not hasattr(model.EmbeddingModel, "popularity")
    parameter = inspect.signature(recommender.rank_candidates).parameters["popularity"]
    assert parameter.default is inspect.Parameter.empty

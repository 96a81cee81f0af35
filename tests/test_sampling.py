"""The block sampler against one-at-a-time draws from the scalar generator.

Every comparison is byte for byte: a state sampled inside a job must equal
the state the scalar oracle builds from the same recipe, and its replay.
"""

import math
import tracemalloc

import numpy as np
import pytest

import oracles
from oracles import scalar_random_density, scalar_random_separable
from puritylab import density
from puritylab.density import (
    BlockShape,
    _draw_count,
    random_density,
    sample_blocks,
)
from puritylab.errors import BadRank, SpecError
from puritylab.prng import SplitMix64, child_seed, complex_normals, stream_uniforms
from puritylab.sweep import _sample_recipe, scan_state

SHAPES = [BlockShape(2, 2), BlockShape(2, 3), BlockShape(3, 3)]
# The block size these tests sample with: small, so that short jobs cross
# block boundaries.  JOB is not a multiple of it, so the last block is partial.
BLOCK = 32
JOB = 2 * BLOCK + 2


@pytest.fixture(autouse=True)
def small_blocks(monkeypatch):
    monkeypatch.setattr(density, "SAMPLE_BLOCK", BLOCK)


def scalar_uniforms(seed: int, count: int) -> list[float]:
    gen = SplitMix64(seed)
    return [gen.uniform() for _ in range(count)]


def oracle_state(shape: BlockShape, kind: str, size: int, seed: int):
    build = scalar_random_density if kind == "ginibre" else scalar_random_separable
    return build(shape.n, shape.m, size, seed)


def scan_recipes(shape: BlockShape, seed: int, samples: int = JOB):
    return [_sample_recipe(shape, k, seed) for k in range(samples)]


def audit_recipes(shape: BlockShape, seed: int, samples: int = JOB):
    return [("ginibre", k % shape.dim + 1, child_seed(seed, k)) for k in range(samples)]


def job_mats(shape: BlockShape, recipes) -> np.ndarray:
    """The matrices of a sampled job's blocks, in recipe order."""
    return np.concatenate([block.mats for block in sample_blocks(shape, recipes)])


class TestStreamUniforms:
    def test_child_streams_bit_identical(self):
        seeds = [child_seed(2024, k) for k in range(2000)]
        drawn = stream_uniforms(seeds, [100] * len(seeds))
        expected = [u for seed in seeds for u in scalar_uniforms(seed, 100)]
        assert drawn.tobytes() == np.array(expected).tobytes()

    @pytest.mark.parametrize("seed", [-1, -2**70, 2**64 + 5, 0])
    def test_seeds_masked_to_64_bits(self, seed):
        drawn = stream_uniforms([seed], [100])
        assert drawn.tobytes() == np.array(scalar_uniforms(seed, 100)).tobytes()

    def test_unequal_counts_concatenated_in_order(self):
        seeds, counts = [5, -5, 2**63, 7], [3, 0, 11, 1]
        expected = [u for seed, n in zip(seeds, counts) for u in scalar_uniforms(seed, n)]
        assert stream_uniforms(seeds, counts).tobytes() == np.array(expected).tobytes()

    def test_complex_normals_match_scalar_draws(self):
        gen = SplitMix64(99)
        expected = np.array([gen.complex_normal() for _ in range(5000)])
        drawn = complex_normals(stream_uniforms([99], [10000]))
        assert drawn.tobytes() == expected.tobytes()

    def test_transient_memory_bounded_by_output(self):
        """The uniforms and complex normals of one 256-state 3x3 audit block
        (182,880 bytes each) peak at 2.05 and 2.49 times their output under
        tracemalloc; 4.04 and 4.51 before the mix ran in place and the logs
        stopped going through a list of Python floats."""
        shape = BlockShape(3, 3)
        recipes = audit_recipes(shape, 11, samples=256)
        seeds = [seed for _, _, seed in recipes]
        counts = [_draw_count(shape, kind, size) for kind, size, _ in recipes]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            uniforms = stream_uniforms(seeds, counts)
            uniforms_peak = tracemalloc.get_traced_memory()[1] - before
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            normals = complex_normals(uniforms)
            normals_peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert uniforms_peak <= 2.25 * uniforms.nbytes
        assert normals_peak <= 2.75 * normals.nbytes


class TestJobSampler:
    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    @pytest.mark.parametrize("seed", [2024, -5])
    def test_scan_recipes_byte_identical(self, shape, seed):
        recipes = scan_recipes(shape, seed)
        mats = job_mats(shape, recipes)
        assert len(mats) == len(recipes)
        for recipe, mat in zip(recipes, mats):
            assert mat.tobytes() == oracle_state(shape, *recipe).mat.tobytes(), recipe

    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_audit_recipes_byte_identical(self, shape):
        recipes = audit_recipes(shape, 7)
        for recipe, mat in zip(recipes, job_mats(shape, iter(recipes))):
            assert mat.tobytes() == oracle_state(shape, *recipe).mat.tobytes(), recipe

    @pytest.mark.parametrize("terms", [5, 6, 9, 13])
    def test_many_term_mixtures_byte_identical(self, terms):
        shape = BlockShape(2, 3)
        recipes = [("separable", terms, child_seed(terms, k)) for k in range(5)]
        for recipe, mat in zip(recipes, job_mats(shape, recipes)):
            assert mat.tobytes() == oracle_state(shape, *recipe).mat.tobytes(), recipe

    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_replay_matches_job(self, shape):
        recipes = scan_recipes(shape, 12345)
        for (kind, size, seed), mat in zip(recipes, job_mats(shape, recipes)):
            assert scan_state(shape, kind, size, seed).mat.tobytes() == mat.tobytes()
            if kind == "ginibre":
                single = random_density(shape.n, shape.m, size, seed)
                assert single.mat.tobytes() == mat.tobytes()

    def test_recipes_read_lazily(self):
        shape, taken = BlockShape(2, 2), []

        def recipes():
            for k in range(10**9):
                taken.append(k)
                yield _sample_recipe(shape, k, 1)

        next(sample_blocks(shape, recipes()))
        assert len(taken) == BLOCK

    def test_one_draw_per_block(self, monkeypatch):
        calls = []

        def counted(seeds, counts):
            calls.append(len(seeds))
            return stream_uniforms(seeds, counts)

        monkeypatch.setattr(density, "stream_uniforms", counted)
        shape = BlockShape(2, 3)
        assert len(job_mats(shape, scan_recipes(shape, 9))) == JOB
        assert calls == [BLOCK, BLOCK, JOB - 2 * BLOCK]

    def test_normals_drawn_before_builds(self, monkeypatch):
        """Within each block every complex_normals call comes before the
        first build: the scalar log pass never follows a build's matmul."""
        events = []

        def logged(name, original):
            def wrapper(*args):
                events.append(name)
                return original(*args)
            return wrapper

        for name, label in (("stream_uniforms", "draw"), ("complex_normals", "normals"),
                            ("_ginibre_mats", "build"), ("_separable_mats", "build")):
            monkeypatch.setattr(density, name, logged(label, getattr(density, name)))
        shape = BlockShape(2, 3)
        assert len(job_mats(shape, scan_recipes(shape, 4))) == JOB
        blocks = [block.split() for block in " ".join(events).split("draw")[1:]]
        assert len(blocks) == 3
        for block in blocks:
            assert {"normals", "build"} <= set(block)
            assert block.count("normals") == block.count("build")
            assert "normals" not in block[block.index("build"):]

    def test_empty_job(self):
        assert list(sample_blocks(BlockShape(2, 2), [])) == []

    @pytest.mark.parametrize("index", [379, 435, 487])
    def test_separable_weights_are_math_logs(self, index):
        """The weights of these separable samples of a seed-2024 2x2 scan are
        -ln of head uniforms on which numpy's AVX-512 log differs from
        ``math.log`` in the last bit; the sampler takes ``math.log``, as the
        scalar draw does, so the states do not depend on the CPU."""
        shape = BlockShape(2, 2)
        kind, terms, seed = _sample_recipe(shape, index, 2024)
        rows = stream_uniforms([seed], [_draw_count(shape, kind, terms)]).reshape(1, -1)
        weights = density._build_inputs(kind, terms, rows)[0]
        assert weights.tolist() == [[-math.log(u) for u in rows[0, :terms].tolist()]]
        recipe = (kind, terms, seed)
        assert job_mats(shape, [recipe])[0].tobytes() == oracle_state(shape, *recipe).mat.tobytes()


class TestRecipes:
    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_draw_counts(self, shape, monkeypatch):
        """One-at-a-time sampling consumes 2*N*rank uniforms per Ginibre state
        and terms + 2*terms*(n+m) per separable state, the block sampler's
        per-recipe counts."""
        calls = []
        next_u64 = SplitMix64.next_u64

        def counted(gen):
            calls.append(1)
            return next_u64(gen)

        monkeypatch.setattr(oracles.SplitMix64, "next_u64", counted)
        n, m, dim = shape.n, shape.m, shape.dim
        for rank in (1, dim):
            calls.clear()
            scalar_random_density(n, m, rank, 3)
            assert len(calls) == 2 * dim * rank == _draw_count(shape, "ginibre", rank)
        for terms in (1, 4):
            calls.clear()
            scalar_random_separable(n, m, terms, 3)
            assert len(calls) == terms + 2 * terms * (n + m) \
                == _draw_count(shape, "separable", terms)

    @pytest.mark.parametrize("recipe, error", [
        (("ginibre", 0, 1), BadRank),
        (("ginibre", 5, 1), BadRank),
        (("separable", 0, 1), BadRank),
        (("werner", 1, 1), SpecError),
    ])
    def test_bad_recipe_rejected(self, recipe, error):
        with pytest.raises(error):
            list(sample_blocks(BlockShape(2, 2), [("ginibre", 1, 0), recipe]))

"""Carpet approximants, membership, rendering, and boundary metrics."""
import hashlib
import random
import time
from fractions import Fraction

import pytest

from relfix import fractal
from relfix.errors import BoundExceeded, DepthLimit
from relfix.fractal import (
    BIT_STEP_LIMIT,
    KEEP,
    RES_LIMIT,
    STEP_LIMIT,
    BoundaryPoint,
    CellSet,
    approximant,
    carpet_member,
    d_path,
    d_taxicab,
    pgm_bytes,
    render,
    subdivide,
    write_pgm,
)

from oracles import cell_of_point, naive_carpet_member


class TestSubdivide:
    def test_first_subdivision_is_the_kept_thirds(self):
        got = subdivide(CellSet.full())
        assert got.depth == 1
        assert got.cells == frozenset(KEEP)

    def test_empty_stays_empty(self):
        got = subdivide(CellSet(0, frozenset()))
        assert got.cells == frozenset()

    @pytest.mark.parametrize("depth", range(5))
    def test_cell_counts(self, depth):
        assert len(approximant(depth)) == 8**depth

    def test_refinement_is_monotone(self):
        coarse = approximant(2)
        fine = approximant(3)
        for i, j in fine.cells:
            assert (i // 3, j // 3) in coarse.cells

    def test_depth_limit(self):
        c = CellSet(10, frozenset())
        with pytest.raises(DepthLimit):
            subdivide(c)

    def test_cells_validated(self):
        with pytest.raises(ValueError):
            CellSet(0, frozenset({(1, 0)}))


class TestMembership:
    def test_depth_zero_everything(self):
        assert carpet_member(Fraction(1, 2), Fraction(1, 2), 0) is True

    def test_center_is_out(self):
        assert carpet_member(Fraction(1, 2), Fraction(1, 2), 1) is False

    def test_origin_always_in(self):
        for d in range(7):
            assert carpet_member(0, 0, d) is True

    def test_gridline_point_is_in_by_closure(self):
        assert carpet_member("1/3", 0, 2) is True

    def test_both_expansions_checked_on_cuts(self):
        # (1/3, 1/3) touches the removed middle only at its corner
        assert carpet_member("1/3", "1/3", 1) is True
        # (1/2, 1/3) lies on the middle's bottom edge, which neighboring
        # kept cells share, so the closed convention keeps it
        assert carpet_member("1/2", "1/3", 1) is True
        assert carpet_member("1/2", "1/2", 3) is False

    def test_string_and_fraction_inputs_agree(self):
        assert carpet_member("2/3", "1/9", 3) == carpet_member(Fraction(2, 3), Fraction(1, 9), 3)

    def test_outside_unit_square_rejected(self):
        with pytest.raises(ValueError):
            carpet_member(2, 0, 1)

    @pytest.mark.parametrize("depth", range(4))
    def test_matches_subdivision_on_pixel_centers(self, depth):
        cells = approximant(depth).cells
        res = 3**depth
        for col in range(res):
            for row in range(res):
                x = Fraction(2 * col + 1, 2 * res)
                y = Fraction(2 * row + 1, 2 * res)
                assert carpet_member(x, y, depth) == (cell_of_point(x, y, depth) in cells)

    def test_deep_membership_of_edge_point(self):
        # points on the outer boundary survive every depth
        for d in range(9):
            assert carpet_member(1, "1/2", d) is True

    @pytest.mark.parametrize("depth", range(5))
    def test_matches_closed_cell_oracle(self, depth):
        # denominators 2 and 3^k put points on cuts, cell centers and both
        for q in (1, 2, 3, 6, 9, 18, 27, 54):
            for a in range(q + 1):
                for b in range(q + 1):
                    x, y = Fraction(a, q), Fraction(b, q)
                    assert carpet_member(x, y, depth) == naive_carpet_member(x, y, depth), (x, y)

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError):
            carpet_member("1/2", "1/2", -3)

    def test_digit_scan_over_bound_is_refused(self):
        with pytest.raises(BoundExceeded, match="y needs 5000000 digit steps"):
            carpet_member(0, "1/2", 5_000_000)
        # at the bound the scan still runs
        assert carpet_member("1/2", "1/2", STEP_LIMIT) is False

    def test_points_on_cuts_need_few_digit_steps(self):
        # a reduced denominator 3^k lands the point on a cut at digit k
        assert carpet_member(0, 1, 10**9) is True
        assert carpet_member("1/3", "1/27", 10**9) is True
        assert carpet_member("4/9", "4/9", 10**9) is False
        with pytest.raises(BoundExceeded, match="x needs 1000000000 digit steps"):
            carpet_member("1/6", 0, 10**9)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError):
            carpet_member("1/0", 0, 1)

    def test_decimal_exponent_over_bound_is_refused_before_parsing(self):
        # Fraction would build 10^(10^8) first; the refusal names exponent and bound
        start = time.perf_counter()
        over = f"x has decimal exponent -100000000, over the bound {STEP_LIMIT}"
        with pytest.raises(BoundExceeded, match=over):
            carpet_member("1e-100000000", "0.5", 8)
        with pytest.raises(BoundExceeded, match=f"y has decimal exponent \\+{STEP_LIMIT + 1},"):
            carpet_member("0.5", f"1E+{STEP_LIMIT + 1}", 8)
        assert time.perf_counter() - start < 2
        # a small exponent still parses and answers
        assert carpet_member("1e-1000", "0.5", 8) is True
        assert carpet_member("1e-1000", "1e-1000", 3000) is False

    def test_digit_steps_times_denominator_bits_are_bounded(self, monkeypatch):
        # 10^1000 has 3322 bits: 40,402 steps fit, 40,403 do not
        assert BIT_STEP_LIMIT // 3322 == 40402
        # x = 0 sits on a cut, so y's scan alone decides nothing
        assert carpet_member(0, "1e-1000", 40402) is True

        def no_scan(v, depth):
            raise AssertionError("a refused coordinate was scanned")

        # both refusals come before any digit is scanned
        monkeypatch.setattr(fractal, "_middle_levels", no_scan)
        with pytest.raises(BoundExceeded, match=(
            f"y needs 40403 digit steps on a 3322-bit denominator, "
            f"{40403 * 3322} bit-steps over the bound {BIT_STEP_LIMIT}"
        )):
            carpet_member("0.5", "1e-1000", 40403)
        with pytest.raises(BoundExceeded, match="x needs 2000000 digit steps on a 6643857-bit"):
            carpet_member("1e-2000000", "0.5", 2_000_000)


class TestRender:
    def test_depth_zero_all_inside(self):
        assert render(0, 4) == bytes(16)

    def test_depth_one_three_by_three(self):
        got = render(1, 3)
        # top row, middle row, bottom row; only the center is outside
        assert got == bytes([0, 0, 0, 0, 255, 0, 0, 0, 0])

    @pytest.mark.parametrize("depth", (1, 2, 3))
    def test_inside_count_matches_cells(self, depth):
        res = 3**depth
        raster = render(depth, res)
        assert raster.count(0) == 8**depth

    def test_pgm_header_and_payload(self):
        data = pgm_bytes(1, 3)
        assert data == b"P5\n3 3\n255\n" + bytes([0, 0, 0, 0, 255, 0, 0, 0, 0])

    def test_write_pgm(self, tmp_path):
        path = tmp_path / "carpet.pgm"
        assert write_pgm(path, 1, 3) == render(1, 3)
        assert path.read_bytes() == pgm_bytes(1, 3)

    def test_refused_render_writes_no_file(self, tmp_path):
        path = tmp_path / "carpet.pgm"
        with pytest.raises(ValueError):
            write_pgm(path, -1, 3)
        assert not path.exists()

    def test_res_over_bound_writes_no_file(self, tmp_path):
        path = tmp_path / "carpet.pgm"
        with pytest.raises(BoundExceeded, match="res"):
            write_pgm(path, 1, RES_LIMIT + 1)
        assert not path.exists()

    def test_digit_steps_over_bound_write_no_file(self, tmp_path):
        path = tmp_path / "carpet.pgm"
        with pytest.raises(BoundExceeded, match=r"res \* depth"):
            write_pgm(path, STEP_LIMIT // 4 + 1, 4)
        assert not path.exists()
        # at the bound itself the render runs; v = 1/2 never lands on a cut
        assert render(STEP_LIMIT, 1) == bytes([255])

    @pytest.mark.parametrize("depth", range(4))
    def test_matches_closed_cell_oracle(self, depth):
        for res in range(1, 31):
            centers = [Fraction(2 * i + 1, 2 * res) for i in range(res)]
            want = bytes(
                0 if naive_carpet_member(x, y, depth) else 255
                for y in reversed(centers)
                for x in centers
            )
            assert render(depth, res) == want, res

    @pytest.mark.parametrize(
        "depth, res, digest",
        [
            (4, 243, "d2393e5b81b97f93b7d138bf3555df251a770ff4be6becba9c4971816246c0c6"),
            (5, 200, "d3904cbd58b095cf21460d8c6547eb3372d9f098d1e1b9be9f428349f755aaed"),
            (6, 729, "fcea0dd1114eeb11abbc05ea6e73a737e01524a99343f49fc7d25991bb3d2d53"),
        ],
    )
    def test_pgm_digest(self, depth, res, digest):
        # frozen from the recursive Fraction renderer this one replaced
        assert hashlib.sha256(pgm_bytes(depth, res)).hexdigest() == digest


def random_boundary_point(rng: random.Random) -> BoundaryPoint:
    u = Fraction(rng.randrange(4 * 10_000), 10_000)
    edge_index = int(u)
    t = u - edge_index
    edge = ("bottom", "right", "top", "left")[edge_index]
    if edge in ("top", "left"):
        t = 1 - t  # arc runs against the coordinate on these edges
    return BoundaryPoint(edge, t)


@pytest.mark.parametrize("build, message", [
    (lambda: BoundaryPoint("middle", 0), "unknown edge 'middle'"),
    (lambda: BoundaryPoint("top", Fraction(-1, 3)), "edge parameter must lie in [0, 1]"),
    (lambda: BoundaryPoint("left", Fraction(4, 3)), "edge parameter must lie in [0, 1]"),
    (lambda: render(1, 0), "resolution must be positive"),
    (lambda: render(1, -3), "resolution must be positive"),
], ids=["bad-edge", "t-below-0", "t-above-1", "res-0", "res-negative"])
def test_bad_input_is_refused_by_name(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


class TestMetrics:
    def test_opposite_corners(self):
        p = BoundaryPoint("bottom", 0)  # (0, 0)
        q = BoundaryPoint("right", 1)  # (1, 1)
        assert d_taxicab(p, q) == 2
        assert d_path(p, q) == 2

    def test_adjacent_corners(self):
        p = BoundaryPoint("bottom", 0)  # (0, 0)
        q = BoundaryPoint("top", 0)  # (0, 1)
        assert d_taxicab(p, q) == 1
        assert d_path(p, q) == 1

    def test_same_point_zero(self):
        p = BoundaryPoint("right", Fraction(1, 3))
        assert d_taxicab(p, p) == 0
        assert d_path(p, p) == 0

    def test_corner_identification(self):
        p = BoundaryPoint("bottom", Fraction(1))
        q = BoundaryPoint("right", Fraction(0))
        assert p.xy == q.xy
        assert p.arc == q.arc
        assert d_taxicab(p, q) == 0 and d_path(p, q) == 0

    def test_path_wraps_the_short_way(self):
        p = BoundaryPoint("bottom", Fraction(1, 10))
        q = BoundaryPoint("left", Fraction(1, 10))
        # arc positions 0.1 and 3.9: the short way crosses the corner
        assert d_path(p, q) == Fraction(2, 10)

    def test_taxicab_below_path_and_symmetric(self):
        rng = random.Random(17)
        for _ in range(1000):
            p, q = random_boundary_point(rng), random_boundary_point(rng)
            dt, dp = d_taxicab(p, q), d_path(p, q)
            assert dt <= dp
            assert dt == d_taxicab(q, p)
            assert dp == d_path(q, p)
            assert dp <= 2

    def test_triangle_inequality(self):
        rng = random.Random(19)
        for _ in range(500):
            p, q, r = (random_boundary_point(rng) for _ in range(3))
            assert d_taxicab(p, r) <= d_taxicab(p, q) + d_taxicab(q, r)
            assert d_path(p, r) <= d_path(p, q) + d_path(q, r)

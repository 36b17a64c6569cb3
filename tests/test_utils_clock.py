"""Tests for the virtual clock."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ExecutionError
from repro.utils.clock import PipelineSchedule, VirtualClock


def pipeline_makespan(cells: list[list[float]]) -> float:
    """Critical-path makespan of a batch-major (batch, stage) duration grid.

    Equivalent to replaying ``cells`` through a :class:`PipelineSchedule`.
    An empty grid (or one of empty rows) has makespan 0.
    """
    schedule = PipelineSchedule()
    for row in cells:
        schedule.start_batch()
        for stage, seconds in enumerate(row):
            schedule.record(stage, seconds)
    return schedule.makespan


def test_advance_accumulates():
    clock = VirtualClock()
    clock.advance(1.5)
    clock.advance(2.5)
    assert clock.elapsed == pytest.approx(4.0)


def test_advance_rejects_negative():
    with pytest.raises(ExecutionError):
        VirtualClock().advance(-1.0)


# ---------------------------------------------------------------------------
# Pipeline sections
# ---------------------------------------------------------------------------


def test_pipeline_makespan_matches_recurrence():
    # finish[b][s] = max(finish[b][s-1], finish[b-1][s]) + t[b][s].
    cells = [[2.0, 3.0], [2.0, 3.0], [2.0, 3.0]]
    # Batch 0: 2 then 3 -> done 5.  Stage 1 is the bottleneck: batches
    # leave it at 5, 8, 11.
    assert pipeline_makespan(cells) == pytest.approx(11.0)


def test_pipeline_makespan_reduces_to_sum_for_single_batch():
    assert pipeline_makespan([[1.0, 2.0, 3.0]]) == pytest.approx(6.0)


def test_pipeline_makespan_reduces_to_sum_for_single_stage():
    # One stage: batches serialize on it.
    assert pipeline_makespan([[2.0], [3.0], [4.0]]) == pytest.approx(9.0)


def test_pipeline_makespan_empty_and_ragged():
    assert pipeline_makespan([]) == 0.0
    assert pipeline_makespan([[], []]) == 0.0
    # A batch filtered out after stage 0 just has fewer cells.
    assert pipeline_makespan([[2.0, 1.0], [2.0]]) == pytest.approx(4.0)


def test_pipeline_schedule_is_online_form_of_makespan():
    cells = [[1.0, 5.0, 2.0], [3.0, 1.0], [2.0, 2.0, 2.0]]
    schedule = PipelineSchedule()
    for row in cells:
        schedule.start_batch()
        for stage, seconds in enumerate(row):
            schedule.record(stage, seconds)
    assert schedule.makespan == pytest.approx(pipeline_makespan(cells))


def test_pipeline_schedule_repeat_stage_extends_cell():
    # Recording the same stage twice within one batch (wave retry) extends
    # that cell rather than opening a new one.
    schedule = PipelineSchedule()
    schedule.start_batch()
    schedule.record(0, 2.0)
    schedule.record(0, 1.5)
    assert schedule.makespan == pytest.approx(3.5)


def test_pipeline_schedule_rejects_bad_cells():
    schedule = PipelineSchedule()
    schedule.start_batch()
    with pytest.raises(ExecutionError):
        schedule.record(0, -1.0)
    with pytest.raises(ExecutionError):
        schedule.record(-1, 1.0)


def test_pipeline_of_parallel_wave_makespans_composes():
    # Nested accounting: each pipeline cell is itself the makespan of a
    # parallel section.  Width-2 waves over first-stage latencies
    # [1, 2, 3, 4], [2, 2], [5] cost [max(1,2)+max(3,4), max(2,2), max(5)]
    # = [6, 2, 5]; 0.5 s second-stage calls cost [1.0, 0.5, 0.5].
    cells = [[6.0, 1.0], [2.0, 0.5], [5.0, 0.5]]
    # Stage 0 serializes to 13, then the last batch's stage-1 wave lands
    # on top.
    assert pipeline_makespan(cells) == pytest.approx(13.5)


def test_start_batch_ready_time_delays_the_batch():
    # A batch of held-back records exists only once its holding stage has
    # finished: downstream work must start no earlier than that.
    schedule = PipelineSchedule()
    for seconds in (3.0, 4.0):
        schedule.start_batch()
        schedule.record(0, seconds)
    assert schedule.stage_finish(0) == pytest.approx(7.0)
    assert schedule.stage_finish(1) == 0.0  # never ran
    schedule.start_batch(schedule.stage_finish(0))
    schedule.record(1, 2.0)
    assert schedule.last_cell == (pytest.approx(7.0), pytest.approx(9.0))
    assert schedule.makespan == pytest.approx(9.0)


# ---------------------------------------------------------------------------
# PipelineSchedule properties (hypothesis)
# ---------------------------------------------------------------------------

#: Cell durations include exact zeros: zero-duration cells are how the
#: executor reports batches that hit only cached calls in a stage.
_durations = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=60.0, allow_nan=False, allow_infinity=False),
)

#: Rectangular grids (every batch visits every stage).
_rect_grids = st.integers(min_value=1, max_value=5).flatmap(
    lambda n_stages: st.lists(
        st.lists(_durations, min_size=n_stages, max_size=n_stages),
        min_size=1,
        max_size=6,
    )
)

#: Ragged grids: batches may die mid-pipeline (fewer cells), and the grid
#: itself may be empty or hold only empty rows.
_ragged_grids = st.lists(
    st.lists(_durations, min_size=0, max_size=5), min_size=0, max_size=6
)


@given(_rect_grids)
@settings(max_examples=200, deadline=None)
def test_schedule_matches_textbook_recurrence(cells):
    # finish[b][s] = max(finish[b][s-1], finish[b-1][s]) + t[b][s].
    finish = {}
    for b, row in enumerate(cells):
        for s, seconds in enumerate(row):
            ready = max(finish.get((b, s - 1), 0.0), finish.get((b - 1, s), 0.0))
            finish[(b, s)] = ready + seconds
    expected = finish[(len(cells) - 1, len(cells[0]) - 1)]
    assert pipeline_makespan(cells) == pytest.approx(expected)


@given(_ragged_grids)
@settings(max_examples=200, deadline=None)
def test_makespan_bounded_by_row_column_and_total_sums(cells):
    makespan = pipeline_makespan(cells)
    row_sums = [sum(row) for row in cells]
    n_stages = max((len(row) for row in cells), default=0)
    column_sums = [
        sum(row[s] for row in cells if s < len(row)) for s in range(n_stages)
    ]
    # Critical path dominates every batch and every stage, and pipelining
    # can never beat fully-sequential execution.
    assert makespan >= max(row_sums, default=0.0) - 1e-9
    assert makespan >= max(column_sums, default=0.0) - 1e-9
    assert makespan <= sum(row_sums) + 1e-9


@given(st.lists(_durations, min_size=0, max_size=8))
@settings(max_examples=100, deadline=None)
def test_single_batch_grid_reduces_to_stage_sum(row):
    # One batch never waits on a busy stage: the pipeline degenerates to
    # the sequential sum, even with zero-duration cells interleaved.
    assert pipeline_makespan([row]) == pytest.approx(sum(row))


@given(st.lists(st.lists(st.just(0.0), min_size=0, max_size=4), max_size=6))
@settings(max_examples=50, deadline=None)
def test_all_zero_grid_has_zero_makespan(cells):
    assert pipeline_makespan(cells) == 0.0


@given(_ragged_grids)
@settings(max_examples=150, deadline=None)
def test_online_makespan_is_monotone_and_empty_section_is_zero(cells):
    schedule = PipelineSchedule()
    # Empty section (or batches announced with no cells): zero makespan.
    assert schedule.makespan == 0.0
    last = 0.0
    for row in cells:
        schedule.start_batch()
        for stage, seconds in enumerate(row):
            current = schedule.record(stage, seconds)
            # Recording work never rewinds the section clock, and the
            # scheduled cell lies inside the reported makespan.
            assert current >= last - 1e-9
            start, end = schedule.last_cell
            assert 0.0 <= start <= end <= current + 1e-9
            last = current
    assert schedule.makespan == pytest.approx(pipeline_makespan(cells))


@given(_ragged_grids, st.floats(min_value=0.1, max_value=50.0))
@settings(max_examples=100, deadline=None)
def test_makespan_scales_linearly(cells, factor):
    scaled = [[seconds * factor for seconds in row] for row in cells]
    assert pipeline_makespan(scaled) == pytest.approx(
        pipeline_makespan(cells) * factor, rel=1e-9
    )


@given(_rect_grids, st.data())
@settings(max_examples=150, deadline=None)
def test_growing_one_cell_never_shrinks_makespan(cells, data):
    b = data.draw(st.integers(min_value=0, max_value=len(cells) - 1))
    s = data.draw(st.integers(min_value=0, max_value=len(cells[0]) - 1))
    extra = data.draw(st.floats(min_value=0.0, max_value=30.0))
    grown = [list(row) for row in cells]
    grown[b][s] += extra
    assert pipeline_makespan(grown) >= pipeline_makespan(cells) - 1e-9

"""Tests for the serving layer: coalescing parity, policies, backpressure."""

from __future__ import annotations

import threading
import time
from concurrent.futures import wait

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments import ExperimentSpec, Session, predict_group
from repro.serving import (
    CoalescedGroup,
    DeadlineExpiredError,
    DeadlinePolicy,
    FairSharePolicy,
    FIFOPolicy,
    PredictionRequest,
    PredictionServer,
    RequestQueue,
    ServerClosedError,
    ServerOverloadedError,
    resolve_policy,
)
from repro.serving.policies import POLICIES as POLICY_REGISTRY
from repro.serving.queue import MODES
from repro.workloads.sweeps import dense_sweep

#: Tiny explicit sweeps so every serving test executes quickly.
TINY_SIZES = (1_000, 4_000)

#: The three scheduling policies.
POLICIES = ("fifo", "fair-share", "deadline")


def tiny_spec(algorithm="vector_addition", **kwargs) -> ExperimentSpec:
    kwargs.setdefault("sizes", TINY_SIZES)
    return ExperimentSpec(algorithm=algorithm, **kwargs)


def overlapping_specs():
    """Requests with overlapping size windows over two algorithms."""
    return [
        tiny_spec(sizes=(1_000, 2_000, 4_000)),
        tiny_spec(sizes=(2_000, 4_000, 8_000)),
        tiny_spec(sizes=(4_000, 8_000, 16_000)),
        tiny_spec("reduction", sizes=(1_000, 4_000)),
        tiny_spec("reduction", sizes=(4_000, 16_000)),
    ]


def burst_specs(requests=32, points=256, window=128):
    """Overlapping ``window``-point slices walking a dense size grid.

    Consecutive requests overlap heavily while no two are identical: the
    traffic coalescing exists for.
    """
    sizes = dense_sweep(points).sizes
    span = points - window
    return [
        tiny_spec(sizes=tuple(sizes[offset:offset + window]))
        for offset in (i * span // (requests - 1) for i in range(requests))
    ]


def assert_results_identical(got, want):
    assert got.to_json() == want.to_json()


def assert_predictions_identical(got, want):
    assert got.sizes == want.sizes
    for name, values in want.series.items():
        np.testing.assert_array_equal(got.series[name], values)


def isolated_answer(spec, mode):
    """The answer a request gets when it is served alone."""
    if mode == "predict":
        return predict_group([spec])[0]
    return Session().run_many([spec])[0]


class TestCoalescingParity:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_results_bit_for_bit_equal_isolated_run_many(self, policy):
        specs = overlapping_specs()
        server = PredictionServer(policy=policy, workers=2)
        futures = server.submit_many(specs)  # queue before start → coalesce
        with server:
            results = [f.result(timeout=120) for f in futures]
        isolated = Session().run_many(specs)
        for got, want in zip(results, isolated):
            assert_results_identical(got, want)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_predict_mode_equals_isolated_predict_group(self, policy):
        specs = overlapping_specs()
        server = PredictionServer(policy=policy, workers=2)
        futures = server.submit_many(specs, mode="predict")
        with server:
            predictions = [f.result(timeout=120) for f in futures]
        for spec, got in zip(specs, predictions):
            assert_predictions_identical(got, predict_group([spec])[0])

    @pytest.mark.parametrize("specs", [
        [
            tiny_spec(sizes=(1_000, 2_000)),
            tiny_spec(sizes=(2_000, 4_000)),
            tiny_spec(sizes=(4_000, 8_000)),
        ],
        burst_specs(),
    ], ids=["three", "burst32"])
    def test_pre_start_requests_coalesce_into_fewer_groups(self, specs):
        server = PredictionServer(workers=1)
        futures = server.submit_many(specs, mode="predict")
        with server:
            wait(futures, timeout=120)
        stats = server.stats()
        assert stats.completed == len(specs)
        assert stats.dispatched_groups == 1
        assert stats.coalescing_ratio == pytest.approx(len(specs))
        assert stats.latency_p50_s > 0.0
        for spec, future in zip(specs, futures):
            assert_predictions_identical(
                future.result(), predict_group([spec])[0]
            )

    def test_burst_windows_overlap_but_differ(self):
        specs = burst_specs()
        windows = [set(spec.sizes) for spec in specs]
        assert len(specs) == 32
        assert all(len(window) == 128 for window in windows)
        assert len({tuple(spec.sizes) for spec in specs}) == 32
        for first, second in zip(windows, windows[1:]):
            assert first & second and first != second

    def test_concurrent_submitters_all_get_correct_answers(self):
        specs = overlapping_specs()
        isolated = list(Session().run_many(specs))
        outcomes = {}
        with PredictionServer(workers=4) as server:
            def client(index):
                future = server.submit(specs[index])
                outcomes[index] = future.result(timeout=120)

            threads = [
                threading.Thread(target=client, args=(i,))
                for i in range(len(specs))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        for index, want in enumerate(isolated):
            assert_results_identical(outcomes[index], want)

    def test_coalesced_and_isolated_sessions_share_nothing(self):
        # Two servers over distinct sessions must agree with each other.
        specs = overlapping_specs()[:3]
        answers = []
        for _ in range(2):
            server = PredictionServer(workers=1)
            futures = server.submit_many(specs)
            with server:
                answers.append([f.result(timeout=120) for f in futures])
        for got, want in zip(answers[0], answers[1]):
            assert_results_identical(got, want)


#: Sizes the generated request windows are cut from.
TRAFFIC_GRID = (1_000, 2_000, 4_000, 8_000, 16_000)


@st.composite
def traffic(draw):
    """Overlapping windows over two algorithms, in a random order, split
    at a random point into requests sent before and after the start."""
    requests = draw(st.lists(
        st.tuples(
            st.sampled_from(["vector_addition", "reduction"]),
            st.integers(0, len(TRAFFIC_GRID) - 1),
            st.integers(1, 3),
            st.sampled_from(["A", "B"]),
            st.one_of(st.none(), st.floats(60.0, 600.0)),
        ),
        min_size=1, max_size=6,
    ))
    order = draw(st.permutations(range(len(requests))))
    before = draw(st.integers(0, len(requests)))
    submissions = [
        (tiny_spec(name, sizes=TRAFFIC_GRID[start:start + width]),
         tenant, deadline_s)
        for name, start, width, tenant, deadline_s in
        (requests[i] for i in order)
    ]
    return submissions[:before], submissions[before:]


class TestCoalescingUnderGeneratedTraffic:
    """Coalesced answers equal isolated ones under any interleaving."""

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("policy", POLICIES)
    @settings(derandomize=True, max_examples=6, deadline=None)
    @given(submissions=traffic())
    def test_every_answer_equals_the_isolated_one(self, policy, mode,
                                                  submissions):
        before, after = submissions
        server = PredictionServer(policy=policy, workers=2)

        def submit(spec, tenant, deadline_s):
            return server.submit(
                spec, tenant=tenant, deadline_s=deadline_s, mode=mode
            )

        futures = [submit(*request) for request in before]
        with server:
            futures += [submit(*request) for request in after]
            answers = [future.result(timeout=120) for future in futures]
        for (spec, _, _), got in zip(before + after, answers):
            want = isolated_answer(spec, mode)
            if mode == "predict":
                assert_predictions_identical(got, want)
            else:
                assert_results_identical(got, want)


class TestLifecycleAndErrors:
    def test_submit_after_close_raises_typed_error(self):
        server = PredictionServer(workers=1)
        server.start()
        server.close()
        with pytest.raises(ServerClosedError):
            server.submit(tiny_spec())

    def test_close_without_start_cancels_pending_futures(self):
        server = PredictionServer(workers=1)
        future = server.submit(tiny_spec())
        server.close()
        assert future.cancelled()
        assert server.stats().cancelled == 1

    def test_unknown_mode_and_policy_are_rejected_by_name(self):
        server = PredictionServer(workers=1)
        with pytest.raises(ValueError, match="known modes"):
            server.submit(tiny_spec(), mode="stream")
        with pytest.raises(KeyError, match="known policies"):
            resolve_policy("round-robin")
        server.close()

    def test_failing_spec_only_fails_its_own_future(self):
        # An unknown backend fails at dispatch (backend names resolve
        # late); the good request that coalesced into the same group must
        # still be answered.
        good = tiny_spec()
        bad = tiny_spec(backends=("atgpu", "not_a_backend"))
        server = PredictionServer(workers=1)
        good_future = server.submit(good)
        bad_future = server.submit(bad)
        with server:
            result = good_future.result(timeout=120)
            with pytest.raises(KeyError):
                bad_future.result(timeout=120)
        assert_results_identical(result, Session().run_many([good])[0])
        stats = server.stats()
        assert stats.failed == 1
        assert stats.completed == 1


#: Requests ``submit`` refuses where they enter.  Accepted, ``None`` and a
#: mapping failed with ``AttributeError``, a NaN deadline never expired,
#: and an unhashable tenant killed the fair-share worker.
BAD_SUBMISSIONS = {
    "spec=None": ((None,), {}, TypeError),
    "spec=mapping": (({"algorithm": "vector_addition"},), {}, TypeError),
    "tenant=[]": ((tiny_spec(),), {"tenant": []}, TypeError),
    "deadline_s=nan": ((tiny_spec(),), {"deadline_s": float("nan")},
                       ValueError),
}


class TestSubmitBoundary:
    @pytest.mark.parametrize("case", sorted(BAD_SUBMISSIONS))
    @pytest.mark.parametrize("policy", sorted(POLICY_REGISTRY))
    def test_bad_request_raises_at_submit_and_the_server_still_answers(
        self, policy, case
    ):
        (spec,), kwargs, error = BAD_SUBMISSIONS[case]
        with PredictionServer(policy=policy, workers=1) as server:
            with pytest.raises(error):
                server.submit(spec, **kwargs)
            with pytest.raises(error):
                server.submit_many([spec], **kwargs)
            # A timeout, so a stalled worker fails the test, not hangs it.
            answer = server.submit(tiny_spec(), mode="predict").result(
                timeout=30
            )
        assert_predictions_identical(
            answer, isolated_answer(tiny_spec(), "predict")
        )

    @pytest.mark.parametrize("policy", sorted(POLICY_REGISTRY))
    def test_a_never_started_server_closes_after_refusals(self, policy):
        server = PredictionServer(policy=policy, workers=1)
        for (spec,), kwargs, error in BAD_SUBMISSIONS.values():
            with pytest.raises(error):
                server.submit(spec, **kwargs)
        pending = server.submit(tiny_spec())
        server.close()
        assert pending.cancelled()


class TestAdmissionControl:
    def test_queue_depth_bound_rejects_with_counters(self):
        server = PredictionServer(workers=1, max_queue_depth=2)
        server.submit(tiny_spec(sizes=(1_000,)))
        server.submit(tiny_spec(sizes=(2_000,)))
        with pytest.raises(ServerOverloadedError) as excinfo:
            server.submit(tiny_spec(sizes=(4_000,)))
        assert excinfo.value.queue_depth == 2
        assert server.stats().rejected == 1
        server.close()

    def test_inflight_sizes_bound_rejects_large_requests(self):
        server = PredictionServer(workers=1, max_inflight_sizes=4)
        server.submit(tiny_spec(sizes=(1_000, 2_000, 4_000)))
        with pytest.raises(ServerOverloadedError, match="in-flight"):
            server.submit(tiny_spec(sizes=(8_000, 16_000)))
        server.close()

    def test_completion_credits_the_inflight_account_back(self):
        server = PredictionServer(workers=1, max_inflight_sizes=3)
        future = server.submit(tiny_spec(sizes=(1_000, 2_000, 4_000)))
        with server:
            future.result(timeout=120)
            deadline = time.monotonic() + 30
            while server.stats().inflight_sizes and time.monotonic() < deadline:
                time.sleep(0.01)
            # The account drained, so an equally large request is admitted.
            server.submit(tiny_spec(sizes=(2_000, 8_000, 16_000)))


class TestSchedulingPolicies:
    def test_fifo_dispatches_in_arrival_order(self):
        server = PredictionServer(policy="fifo", workers=1)
        first = server.submit(tiny_spec(), mode="predict")
        second = server.submit(tiny_spec("reduction"), mode="predict")
        with server:
            wait([first, second], timeout=120)
        keys = [key[0] for key in server.stats().recent_dispatches]
        assert keys == ["vector_addition", "reduction"]

    def test_fair_share_serves_starved_tenant_before_flood(self):
        # Tenant A floods two groups before tenant B's single request;
        # fair-share dispatches B's group second, FIFO would run it last.
        server = PredictionServer(policy="fair-share", workers=1)
        futures = [
            server.submit(tiny_spec(), tenant="A", mode="predict"),
            server.submit(tiny_spec("reduction"), tenant="A", mode="predict"),
            server.submit(
                tiny_spec("matrix_multiplication", sizes=(64, 128)),
                tenant="B",
                mode="predict",
            ),
        ]
        with server:
            wait(futures, timeout=120)
        keys = [key[0] for key in server.stats().recent_dispatches]
        assert keys == [
            "vector_addition",
            "matrix_multiplication",
            "reduction",
        ]
        policy = server.policy
        assert policy.served("A") == pytest.approx(4.0)
        assert policy.served("B") == pytest.approx(2.0)

    def test_deadline_policy_orders_by_urgency(self):
        server = PredictionServer(policy="deadline", workers=1)
        relaxed = server.submit(tiny_spec(), deadline_s=500.0, mode="predict")
        urgent = server.submit(
            tiny_spec("reduction"), deadline_s=60.0, mode="predict"
        )
        with server:
            wait([relaxed, urgent], timeout=120)
        keys = [key[0] for key in server.stats().recent_dispatches]
        assert keys == ["reduction", "vector_addition"]

    def test_deadline_policy_rejects_expired_requests(self):
        server = PredictionServer(policy="deadline", workers=1)
        expired = server.submit(tiny_spec(), deadline_s=0.0)
        time.sleep(0.02)
        with server:
            with pytest.raises(DeadlineExpiredError):
                expired.result(timeout=120)
        assert server.stats().expired == 1

    def test_other_policies_treat_deadlines_as_advisory(self):
        server = PredictionServer(policy="fifo", workers=1)
        expired = server.submit(tiny_spec(), deadline_s=0.0)
        time.sleep(0.02)
        with server:
            result = expired.result(timeout=120)
        assert_results_identical(
            result, Session().run_many([tiny_spec()])[0]
        )


class TestRequestQueue:
    def test_take_blocks_until_put_then_returns_whole_group(self):
        queue = RequestQueue()
        policy = FIFOPolicy()
        taken = []

        def consumer():
            taken.append(queue.take(policy))

        thread = threading.Thread(target=consumer)
        thread.start()
        request = self._request(queue)
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert taken[0].requests == (request,)
        assert queue.depth == 0

    def test_close_wakes_blocked_consumer_with_none(self):
        queue = RequestQueue()
        policy = FIFOPolicy()
        taken = ["sentinel"]

        def consumer():
            taken[0] = queue.take(policy)

        thread = threading.Thread(target=consumer)
        thread.start()
        time.sleep(0.05)
        queue.close()
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert taken[0] is None

    def test_group_views_expose_policy_ordering_keys(self):
        queue = RequestQueue()
        early = self._request(queue, tenant="A", deadline=90.0)
        late = self._request(queue, tenant="B", deadline=50.0)
        group = queue.take(FIFOPolicy(), timeout=1)
        assert len(group) == 2
        assert group.oldest_submitted == early.submitted_at
        assert group.earliest_deadline == 50.0
        assert group.tenants == ("A", "B")
        assert group.total_cost == early.cost + late.cost

    @staticmethod
    def _request(queue, tenant="default", deadline=None):
        from concurrent.futures import Future

        request = PredictionRequest(
            spec=tiny_spec(),
            future=Future(),
            tenant=tenant,
            deadline=deadline,
            cost=len(TINY_SIZES),
        )
        queue.put(request)
        return request

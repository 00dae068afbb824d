"""Unit tests for the admission controller (pure policy, no queues)."""

from __future__ import annotations

import pytest

from repro.robust.errors import AdmissionRejected, DeadlineExceeded
from repro.serve.admission import AdmissionController, priority_rank
from repro.serve.request import PRIORITY_CLASSES


class TestPriorityRank:
    def test_interactive_most_urgent(self):
        ranks = [priority_rank(c) for c in PRIORITY_CLASSES]
        assert ranks == sorted(ranks)
        assert priority_rank("interactive") < priority_rank("batch")
        assert priority_rank("batch") < priority_rank("scan")


class TestClassCaps:
    def test_interactive_gets_full_queue(self):
        ctl = AdmissionController(queue_limit=64)
        assert ctl.class_cap("interactive") == 64

    def test_lower_classes_capped_below_limit(self):
        ctl = AdmissionController(queue_limit=64)
        assert ctl.class_cap("batch") == 48
        assert ctl.class_cap("scan") == 32

    def test_cap_never_below_one(self):
        ctl = AdmissionController(queue_limit=1)
        for c in PRIORITY_CLASSES:
            assert ctl.class_cap(c) == 1


class TestAdmitOrShed:
    def test_empty_queue_admits_everything(self):
        ctl = AdmissionController(queue_limit=8)
        for c in PRIORITY_CLASSES:
            assert ctl.admit(c, depth=0) is None
        assert ctl.stats.admitted == 3
        assert ctl.stats.shed == 0

    def test_graduated_shedding_scan_first(self):
        """As a queue fills, scan sheds first, then batch, interactive last."""
        ctl = AdmissionController(queue_limit=8)
        depth = ctl.class_cap("scan")  # 4
        assert isinstance(ctl.admit("scan", depth), AdmissionRejected)
        assert ctl.admit("batch", depth) is None
        assert ctl.admit("interactive", depth) is None
        depth = ctl.class_cap("batch")  # 6
        assert isinstance(ctl.admit("batch", depth), AdmissionRejected)
        assert ctl.admit("interactive", depth) is None
        assert isinstance(ctl.admit("interactive", 8), AdmissionRejected)

    def test_rejection_is_returned_not_raised(self):
        ctl = AdmissionController(queue_limit=1)
        verdict = ctl.admit("scan", depth=5)
        assert isinstance(verdict, AdmissionRejected)
        assert "queue full" in str(verdict)

    def test_expired_deadline_shed_at_admission(self):
        ctl = AdmissionController(queue_limit=8)
        verdict = ctl.admit("interactive", depth=0, deadline_remaining_s=-0.1)
        assert isinstance(verdict, DeadlineExceeded)
        assert ctl.stats.shed_deadline == 1

    def test_feasible_deadline_admitted(self):
        ctl = AdmissionController(queue_limit=8)
        assert ctl.admit("batch", depth=2, deadline_remaining_s=5.0) is None

    def test_no_wait_estimate_disables_feasibility_check(self):
        ctl = AdmissionController(queue_limit=8)
        assert ctl.admit("batch", depth=5, deadline_remaining_s=1e-9) is None


class TestStats:
    def test_shed_counters_split_by_cause_and_class(self):
        ctl = AdmissionController(queue_limit=2)
        ctl.admit("scan", depth=0)
        ctl.admit("scan", depth=2)
        ctl.admit("batch", depth=0, deadline_remaining_s=-1.0)
        d = ctl.stats.as_dict()
        assert d["admitted"] == 1
        assert d["shed"] == 2
        assert d["shed_queue_full"] == 1
        assert d["shed_deadline"] == 1
        assert d["shed_by_class"] == {"interactive": 0, "batch": 1, "scan": 1}

    def test_shed_errors_derive_from_bpmax_error(self):
        from repro.robust.errors import BpmaxError

        ctl = AdmissionController(queue_limit=1)
        assert isinstance(ctl.admit("scan", depth=9), BpmaxError)
        assert isinstance(
            ctl.admit("scan", depth=0, deadline_remaining_s=-1.0), BpmaxError
        )


class TestValidation:
    def test_queue_limit_must_be_positive(self):
        with pytest.raises(ValueError, match="queue_limit"):
            AdmissionController(queue_limit=0)

"""Chaos-spec grammar and injection semantics."""

import pytest

from repro.runtime import (
    ChaosCrashError,
    ChaosHangError,
    ChaosPoisonError,
    chaos_from_arg,
    parse_chaos_spec,
)
from repro.runtime.chaos import WILDCARD


class TestParsing:
    def test_defaults_per_kind(self):
        spec = parse_chaos_spec("crash@0;hang@1;poison@2;slow@3")
        assert spec.crash == {0: 1}
        assert spec.hang == {1: 3600.0}
        assert spec.poison == {2: -1}
        assert spec.slow == {3: 0.1}

    def test_explicit_parameters(self):
        spec = parse_chaos_spec("crash@0:2;hang@1:0.5;poison@2:3;slow@4:0.25")
        assert spec.crash_attempts(0) == 2
        assert spec.hang_seconds(1, attempt=0) == 0.5
        assert spec.poison_attempts(2) == 3
        assert spec.slow_seconds(4) == 0.25

    def test_wildcard_and_target_lists(self):
        spec = parse_chaos_spec("slow@*:0.01;crash@1,3")
        assert spec.slow == {WILDCARD: 0.01}
        assert spec.slow_seconds(7) == 0.01
        assert spec.crash_attempts(1) == 1
        assert spec.crash_attempts(3) == 1
        assert spec.crash_attempts(2) == 0

    def test_specific_overrides_wildcard(self):
        spec = parse_chaos_spec("slow@*:0.01;slow@2:0.5")
        assert spec.slow_seconds(2) == 0.5
        assert spec.slow_seconds(0) == 0.01

    def test_hang_only_fires_on_first_attempt(self):
        spec = parse_chaos_spec("hang@1:9")
        assert spec.hang_seconds(1, attempt=0) == 9
        assert spec.hang_seconds(1, attempt=1) == 0.0

    @pytest.mark.parametrize(
        "bad",
        [
            "explode@1",
            "crash",
            "crash@x",
            "crash@-2",
            "hang@1:soon",
            # kinds of the deleted fleet worker agent
            "worker-kill@0",
            "worker-hang@0",
            "partition@0",
            "zombie@0",
        ],
    )
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_chaos_spec(bad)

    def test_chaos_from_arg_none_and_empty(self):
        assert chaos_from_arg(None) is None
        assert chaos_from_arg("") is None
        assert chaos_from_arg(";;") is None
        assert chaos_from_arg("poison@0") is not None


class TestJournalFaultParsing:
    def test_defaults_per_kind(self):
        spec = parse_chaos_spec("bitrot@0;torn@1;enospc@2")
        assert spec.bitrot == {0: 1}
        assert spec.torn == {1: 0.5}
        assert spec.enospc == {2: -1}
        assert not spec.is_empty

    def test_torn_write_alias(self):
        spec = parse_chaos_spec("torn-write@4:0.25")
        assert spec.torn == {4: 0.25}
        assert spec.torn_fraction(4) == 0.25
        assert spec.torn_fraction(5) == 0.0

    def test_bitrot_mask_lookup(self):
        spec = parse_chaos_spec("bitrot@3:8")
        assert spec.bitrot_mask(3) == 8
        assert spec.bitrot_mask(2) == 0
        assert parse_chaos_spec("bitrot@*:2").bitrot_mask(17) == 2

    def test_enospc_window_semantics(self):
        # enospc@i:n fails n consecutive appends starting at i ...
        spec = parse_chaos_spec("enospc@3:2")
        assert [spec.enospc_fires(i) for i in range(6)] == [
            False, False, False, True, True, False,
        ]
        # ... and the default (-1) means the disk never recovers.
        forever = parse_chaos_spec("enospc@3")
        assert not forever.enospc_fires(2)
        assert all(forever.enospc_fires(i) for i in range(3, 10))
        assert parse_chaos_spec("enospc@*").enospc_fires(0)

    def test_journal_kinds_do_not_touch_chunk_execution(self):
        spec = parse_chaos_spec("bitrot@0;torn@0;enospc@0")
        spec.before_chunk(0, attempt=0)  # must not raise or sleep


class TestSerialInjection:
    """In the parent process, crash/hang degrade to typed exceptions."""

    def test_crash_raises_in_parent(self):
        spec = parse_chaos_spec("crash@0")
        with pytest.raises(ChaosCrashError):
            spec.before_chunk(0, attempt=0)
        # attempt budget exhausted: the retry goes through
        spec.before_chunk(0, attempt=1)

    def test_hang_raises_in_parent(self):
        spec = parse_chaos_spec("hang@3:42")
        with pytest.raises(ChaosHangError):
            spec.before_chunk(3, attempt=0)
        spec.before_chunk(3, attempt=1)  # retry passes

    def test_poison_persists_across_attempts(self):
        spec = parse_chaos_spec("poison@2")
        for attempt in range(4):
            with pytest.raises(ChaosPoisonError):
                spec.before_chunk(2, attempt=attempt)

    def test_untargeted_chunks_untouched(self):
        spec = parse_chaos_spec("crash@0;hang@1;poison@2")
        spec.before_chunk(5, attempt=0)

"""Store failure-mode tests: truncation, corruption, quarantine, recovery.

The format-v2 integrity surface (satellite of the resilience PR): per-block
CRC32 verification catches bit flips, truncation at a block boundary fails
loudly, version-1 stores (no checksums) stay readable, quarantine renames
never collide, and both the evaluator and the session transparently
recompile from provenance after quarantining a corrupt artifact.
"""

import json
import os
import struct

import numpy as np
import pytest

from repro.batch import BatchEvaluator
from repro.engine.scenario import Scenario
from repro.engine.session import CobraSession
from repro.exceptions import SerializationError
from repro.obs.metrics import get_registry
from repro.provenance.backends import resolve_backend
from repro.provenance.monomial import Monomial
from repro.provenance.polynomial import Polynomial, ProvenanceSet
from repro.provenance.store import (
    MAGIC,
    STORE_VERSION,
    open_store,
    quarantine_store,
    read_store_header,
    write_store,
)


@pytest.fixture
def provenance():
    result = ProvenanceSet()
    result[("g1",)] = Polynomial.from_terms(
        [(2.0, ["x", "y"]), (3.0, ["z"]), (1.0, [])]
    )
    result[("g2",)] = Polynomial(
        {Monomial({"x": 2}): 1.5, Monomial({"y": 1, "z": 1}): -4.0}
    )
    return result


def _store(provenance, tmp_path, name="c.cps"):
    compiled = resolve_backend("real").compile(provenance)
    path = tmp_path / name
    write_store(compiled, path)
    return compiled, path


def _header_and_data_start(path):
    raw = path.read_bytes()
    (header_len,) = struct.unpack_from("<I", raw, len(MAGIC))
    prefix_len = len(MAGIC) + 4 + header_len
    document = json.loads(raw[len(MAGIC) + 4 : prefix_len])
    data_start = (prefix_len + 63) // 64 * 64
    return raw, document, data_start


def _rewrite_header(path, mutate):
    """Edit the header JSON in place without moving the data section.

    The block offsets are relative to the alignment-rounded end of the
    header, so the rewritten header is padded back to its original length
    (JSON tolerates trailing whitespace) to keep every block where it is.
    """
    raw = path.read_bytes()
    (header_len,) = struct.unpack_from("<I", raw, len(MAGIC))
    prefix_len = len(MAGIC) + 4 + header_len
    document = json.loads(raw[len(MAGIC) + 4 : prefix_len])
    mutate(document)
    header = json.dumps(document).encode("utf-8")
    assert len(header) <= header_len, "edited header may not grow"
    header = header + b" " * (header_len - len(header))
    path.write_bytes(
        raw[: len(MAGIC)] + struct.pack("<I", len(header)) + header + raw[prefix_len:]
    )


def _counter(name):
    return get_registry().counter(name).value


class TestIntegrityChecks:
    def test_header_carries_version_and_checksums(self, provenance, tmp_path):
        _, path = _store(provenance, tmp_path)
        raw, document, _ = _header_and_data_start(path)
        assert document["version"] == STORE_VERSION == 5
        blocks = document["store"]["blocks"]
        assert all("crc32" in meta for meta in blocks.values())

    def test_truncated_at_block_boundary(self, provenance, tmp_path):
        _, path = _store(provenance, tmp_path)
        raw, document, data_start = _header_and_data_start(path)
        # Cut the file exactly where the data section begins: the header
        # still parses, every block is gone.
        path.write_bytes(raw[:data_start])
        with pytest.raises(SerializationError, match="truncated"):
            open_store(path, cached=False)

    def test_truncated_mid_block(self, provenance, tmp_path):
        _, path = _store(provenance, tmp_path)
        raw, document, data_start = _header_and_data_start(path)
        offsets = sorted(
            int(meta["offset"]) for meta in document["store"]["blocks"].values()
        )
        # Keep the first block whole, cut the second one short.
        cut = data_start + offsets[1] + 1 if len(offsets) > 1 else data_start + 1
        path.write_bytes(raw[:cut])
        with pytest.raises(SerializationError, match="truncated"):
            open_store(path, cached=False)

    def test_bit_flip_in_block_fails_crc(self, provenance, tmp_path):
        _, path = _store(provenance, tmp_path)
        raw, document, data_start = _header_and_data_start(path)
        corrupted = bytearray(raw)
        corrupted[data_start + 3] ^= 0x40  # one flipped bit in 'constant'
        path.write_bytes(bytes(corrupted))
        with pytest.raises(SerializationError, match="CRC32"):
            open_store(path, cached=False)

    def test_v1_store_without_checksums_still_opens(self, provenance, tmp_path):
        compiled, path = _store(provenance, tmp_path)

        def downgrade(document):
            document["version"] = 1
            for meta in document["store"]["blocks"].values():
                meta.pop("crc32", None)

        _rewrite_header(path, downgrade)
        assert read_store_header(path)["backend"] == "real"
        mapped = open_store(path, cached=False)
        base = np.ones(len(mapped.variables))[np.newaxis, :]
        np.testing.assert_array_equal(
            mapped.evaluate_matrix(base), compiled.evaluate_matrix(base)
        )

    def test_v1_bit_flip_goes_undetected_documenting_the_v2_gain(
        self, provenance, tmp_path
    ):
        # The regression v2 exists to close: without checksums a flipped bit
        # silently changes results instead of raising.
        _, path = _store(provenance, tmp_path)

        def downgrade(document):
            document["version"] = 1
            for meta in document["store"]["blocks"].values():
                meta.pop("crc32", None)

        _rewrite_header(path, downgrade)
        raw, document, data_start = _header_and_data_start(path)
        corrupted = bytearray(raw)
        corrupted[data_start + 3] ^= 0x40
        path.write_bytes(bytes(corrupted))
        open_store(path, cached=False)  # no CRC to fail — opens fine


class TestQuarantine:
    def test_quarantine_renames_and_counts(self, provenance, tmp_path):
        _, path = _store(provenance, tmp_path)
        before = _counter("resilience.quarantines")
        target = quarantine_store(path)
        assert target == f"{path}.quarantined"
        assert not path.exists() and os.path.exists(target)
        assert _counter("resilience.quarantines") == before + 1

    def test_rename_collision_picks_next_suffix(self, provenance, tmp_path):
        _, path = _store(provenance, tmp_path)
        (tmp_path / "c.cps.quarantined").write_text("earlier casualty")
        (tmp_path / "c.cps.quarantined.1").write_text("another one")
        target = quarantine_store(path)
        assert target == f"{path}.quarantined.2"
        assert os.path.exists(target)
        assert (tmp_path / "c.cps.quarantined").read_text() == "earlier casualty"

    def test_missing_file_returns_none(self, tmp_path):
        before = _counter("resilience.quarantines")
        assert quarantine_store(tmp_path / "never-existed.cps") is None
        assert _counter("resilience.quarantines") == before


class TestCorruptStoreRecovery:
    def _corrupt(self, path):
        raw, document, data_start = _header_and_data_start(path)
        corrupted = bytearray(raw)
        corrupted[data_start + 3] ^= 0x40
        path.write_bytes(bytes(corrupted))

    def test_adopt_store_without_provenance_quarantines_and_raises(
        self, provenance, tmp_path
    ):
        _, path = _store(provenance, tmp_path)
        self._corrupt(path)
        with pytest.raises(SerializationError, match="CRC32"):
            BatchEvaluator().adopt_store(path)
        assert not path.exists()
        assert os.path.exists(f"{path}.quarantined")

    def test_adopt_store_recompiles_from_provenance(self, provenance, tmp_path):
        _, path = _store(provenance, tmp_path)
        self._corrupt(path)
        evaluator = BatchEvaluator()
        compiled = evaluator.adopt_store(path, provenance)
        assert compiled.store_path is None  # recompiled, not mapped
        assert os.path.exists(f"{path}.quarantined")
        scenarios = [Scenario("s").scale(["x"], 2.0)]
        report = evaluator.evaluate(provenance, scenarios)
        clean = BatchEvaluator().evaluate(provenance, scenarios)
        np.testing.assert_array_equal(report.full_results, clean.full_results)

    def test_session_open_from_store_recovers(self, provenance, tmp_path):
        _, path = _store(provenance, tmp_path)
        self._corrupt(path)
        session = CobraSession(provenance)
        compiled = session.open_from_store(path)
        assert compiled.store_path is None
        assert os.path.exists(f"{path}.quarantined")

    def test_session_open_from_store_strict_raises(self, provenance, tmp_path):
        _, path = _store(provenance, tmp_path)
        self._corrupt(path)
        session = CobraSession(provenance)
        with pytest.raises(SerializationError, match="CRC32"):
            session.open_from_store(path, recover=False)
        # Strict mode still quarantines: the bad artifact must not be
        # re-verified on the next start.
        assert not path.exists()

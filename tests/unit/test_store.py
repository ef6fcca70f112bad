"""Unit tests for the zero-copy mmap compiled store.

Covers the on-disk format (magic, version envelope, block directory), the
stat-keyed open cache, the compiled-set ``to_store``/``from_store`` surface,
store adoption by the batch evaluator (including store-backed process
sharding), the session-level compile/open workflow and the ``cobra compile``
/ ``cobra batch --store`` CLI round trip.
"""

import json
import struct
import zlib

import numpy as np
import pytest

from repro.batch import BatchEvaluator
from repro.cli.main import main
from repro.engine.scenario import Scenario
from repro.engine.session import CobraSession
from repro.exceptions import SerializationError, SessionStateError
from repro.provenance.backends import resolve_backend
from repro.provenance.incidence import VariableIncidence, expand_segment_rows
from repro.provenance.monomial import Monomial
from repro.provenance.polynomial import Polynomial, ProvenanceSet
from repro.provenance.serialization import save_provenance_set
from repro.provenance.store import (
    ALIGNMENT,
    MAGIC,
    clear_store_cache,
    open_store,
    read_store_header,
    write_store,
)
from repro.provenance.valuation import Valuation


@pytest.fixture
def provenance():
    """Three groups of different widths, one with higher powers."""
    result = ProvenanceSet()
    result[("g1",)] = Polynomial.from_terms(
        [(2.0, ["x", "y"]), (3.0, ["z"]), (1.0, [])]
    )
    result[("g2",)] = Polynomial(
        {Monomial({"x": 2}): 1.5, Monomial({"y": 1, "z": 1}): -4.0}
    )
    result[("g3",)] = Polynomial.from_terms([(5.0, [])])
    return result


@pytest.fixture(params=["real", "tropical", "bool"])
def name(request):
    """The numeric backend every compiled set in a test is built for."""
    return request.param


@pytest.fixture
def scenarios():
    return [
        Scenario("s1").scale(["x"], 2.0),
        Scenario("s2").set_value(["z"], 0.0),
        Scenario("s3").scale(["x", "y"], 0.5).set_value(["ghost"], 3.0),
    ]


def _store(provenance, tmp_path, name, filename="c.cps"):
    compiled = resolve_backend(name).compile(provenance)
    path = tmp_path / filename
    write_store(compiled, path)
    return compiled, path


def _data_offset(header_end):
    return -(-header_end // ALIGNMENT) * ALIGNMENT


def _rewrite_header(path, mutate):
    """Re-serialise the header after ``mutate(document)`` edited it in place.

    The data blocks move behind the new header's alignment padding, so a
    rewritten store still opens.
    """
    raw = path.read_bytes()
    prefix_len = len(MAGIC) + 4
    (header_len,) = struct.unpack_from("<I", raw, len(MAGIC))
    document = json.loads(raw[prefix_len : prefix_len + header_len])
    data = raw[_data_offset(prefix_len + header_len) :]
    mutate(document)
    header = json.dumps(document).encode("utf-8")
    padding = _data_offset(prefix_len + len(header)) - prefix_len - len(header)
    path.write_bytes(
        raw[: len(MAGIC)]
        + struct.pack("<I", len(header))
        + header
        + b"\0" * padding
        + data
    )


def _append_delta_index(path, compiled, version):
    """Rewrite a store as an older ``version``, with delta index blocks.

    Real stores up to version 2, and tropical/bool stores up to version 3,
    carried each group's inverted index (``g*.inc.ptr``/``positions``/
    ``exponents``) and per-monomial rows.
    """
    raw = path.read_bytes()
    (header_len,) = struct.unpack_from("<I", raw, len(MAGIC))
    data_len = len(raw) - _data_offset(len(MAGIC) + 4 + header_len)
    blocks = {}
    appended = b""
    for i, group in enumerate(compiled._groups):
        incidence = VariableIncidence.from_factor_arrays(
            len(compiled.variables), group.indices, group.exponents
        )
        rows = expand_segment_rows(
            group.segment_starts, group.segment_rows, len(group.coefficients)
        )
        for block, array in (
            (f"g{i}.inc.ptr", incidence.ptr.astype("<i8")),
            (f"g{i}.inc.positions", incidence.positions.astype("<i8")),
            (f"g{i}.inc.exponents", incidence.exponents.astype("<f8")),
            (f"g{i}.monomial_rows", rows.astype("<i8")),
        ):
            padding = _data_offset(data_len + len(appended)) - data_len - len(appended)
            appended += b"\0" * padding
            blocks[block] = {
                "dtype": array.dtype.str,
                "shape": list(array.shape),
                "offset": data_len + len(appended),
                "crc32": zlib.crc32(array.tobytes()),
            }
            appended += array.tobytes()
    path.write_bytes(raw + appended)

    def to_version(document):
        document["version"] = version
        document["store"]["blocks"].update(blocks)

    _rewrite_header(path, to_version)


class TestStoreFormat:
    def test_round_trip_matches_compiled(self, name, provenance, scenarios, tmp_path):
        compiled, path = _store(provenance, tmp_path, name)
        mapped = open_store(path, cached=False)
        assert mapped.keys == compiled.keys
        assert mapped.variables == compiled.variables
        assert mapped.source_fingerprint == compiled.source_fingerprint
        assert mapped.store_path == str(path)

        from repro.batch.planner import ScenarioBatch

        batch = ScenarioBatch(scenarios, compiled.variables)
        matrix = batch.valuation_matrix(Valuation({"x": 2.0, "y": 0.0}))
        assert np.array_equal(
            mapped.evaluate_matrix(matrix), compiled.evaluate_matrix(matrix)
        )

    def test_header_payload(self, name, provenance, tmp_path):
        compiled, path = _store(provenance, tmp_path, name)
        header = read_store_header(path)
        assert header["backend"] == name
        assert header["fingerprint"] == compiled.source_fingerprint
        assert "constant" in header["blocks"]
        assert header["groups"][0]["monomials"] >= 1

    def test_mapped_arrays_are_read_only_views(self, name, provenance, tmp_path):
        _, path = _store(provenance, tmp_path, name)
        mapped = open_store(path, cached=False)
        group = mapped._groups[0]
        with pytest.raises((ValueError, RuntimeError)):
            group.coefficients[0] = 123.0

    def test_every_mapped_block_is_unwriteable(self, name, provenance, tmp_path):
        _, path = _store(provenance, tmp_path, name)
        mapped = open_store(path, cached=False)
        views = [mapped._constant]
        for group in mapped._groups:
            views.extend(
                (
                    group.coefficients,
                    group.indices,
                    group.exponents,
                    group.segment_starts,
                    group.segment_rows,
                )
            )
        for view in views:
            assert view.flags.writeable is False
        with pytest.raises((ValueError, RuntimeError)):
            mapped._constant[0] = 99.0

    def test_block_reader_refuses_writeable_map(self, tmp_path):
        from repro.provenance.store import _BlockReader

        path = tmp_path / "w.bin"
        path.write_bytes(np.zeros(8, dtype=np.float64).tobytes())
        reader = _BlockReader(
            str(path),
            {"constant": {"dtype": "<f8", "shape": [8], "offset": 0}},
            0,
        )
        # Simulate a mapping that (wrongly) came back writeable: the reader
        # must refuse to hand out the view rather than propagate it.
        reader._raw = np.zeros(64, dtype=np.uint8)
        with pytest.raises(SerializationError):
            reader("constant")

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.cps"
        path.write_bytes(b"NOTASTORE" + b"\x00" * 64)
        with pytest.raises(SerializationError, match="bad magic"):
            read_store_header(path)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "short.cps"
        path.write_bytes(MAGIC[:4])
        with pytest.raises(SerializationError, match="truncated"):
            read_store_header(path)

    def test_truncated_header(self, name, provenance, tmp_path):
        _, path = _store(provenance, tmp_path, name)
        path.write_bytes(path.read_bytes()[: len(MAGIC) + 4 + 10])
        with pytest.raises(SerializationError, match="truncated"):
            read_store_header(path)

    def test_corrupted_header_json(self, name, provenance, tmp_path):
        _, path = _store(provenance, tmp_path, name)
        raw = bytearray(path.read_bytes())
        raw[len(MAGIC) + 4] = ord("!")
        path.write_bytes(bytes(raw))
        with pytest.raises(SerializationError, match="corrupted"):
            read_store_header(path)

    def test_unversioned_header_rejected(self, name, provenance, tmp_path):
        _, path = _store(provenance, tmp_path, name)
        _rewrite_header(path, lambda doc: doc.pop("version"))
        with pytest.raises(SerializationError, match="version envelope"):
            read_store_header(path)

    def test_future_version_rejected(self, name, provenance, tmp_path):
        _, path = _store(provenance, tmp_path, name)

        def bump(doc):
            doc["version"] = 99

        _rewrite_header(path, bump)
        with pytest.raises(SerializationError, match="version"):
            read_store_header(path)

    def test_wrong_kind_rejected(self, name, provenance, tmp_path):
        _, path = _store(provenance, tmp_path, name)

        def retag(doc):
            doc["kind"] = "provenance_set"

        _rewrite_header(path, retag)
        with pytest.raises(SerializationError):
            read_store_header(path)

    def test_truncated_blocks_rejected(self, name, provenance, tmp_path):
        _, path = _store(provenance, tmp_path, name)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(SerializationError):
            open_store(path, cached=False)

    @pytest.mark.parametrize("version", [1, 2])
    def test_parent_shaped_header_opens_unchanged(
        self, name, version, provenance, scenarios, tmp_path
    ):
        """Stores whose header predates the shared compiled set still open.

        Such headers carry a ``num_constants`` field (0 for real stores,
        whatever their constant term), tropical/bool groups lack
        ``has_higher_powers``, and version-1 blocks lack checksums.
        """
        compiled, path = _store(provenance, tmp_path, name)

        def to_parent_shape(document):
            payload = document["store"]
            payload["num_constants"] = 0 if name == "real" else 2
            if name != "real":
                for meta in payload["groups"]:
                    del meta["has_higher_powers"]
            if version == 1:
                document["version"] = 1
                for meta in payload["blocks"].values():
                    del meta["crc32"]

        _rewrite_header(path, to_parent_shape)
        mapped = open_store(path, cached=False)
        assert mapped.size() == compiled.size() == provenance.size()

        from repro.batch.planner import ScenarioBatch

        batch = ScenarioBatch(scenarios, compiled.variables)
        base = Valuation({"x": 2.0, "y": 0.5, "z": 1.5})
        assert np.array_equal(
            mapped.evaluate_matrix(batch.valuation_matrix(base)),
            compiled.evaluate_matrix(batch.valuation_matrix(base)),
        )
        plan = batch.delta_plan(base)
        assert np.array_equal(
            mapped.evaluate_deltas(plan), compiled.evaluate_deltas(plan)
        )

    def test_delta_index_blocks_by_backend(self, name, provenance, tmp_path):
        """No backend stores a delta index: each derives it on first use."""
        compiled, path = _store(provenance, tmp_path, name)
        header = read_store_header(path)
        assert {
            block
            for block in header["blocks"]
            if ".inc." in block or block.endswith(".monomial_rows")
        } == set()
        assert set(header["blocks"]) == {"constant"} | {
            f"g{i}.{block}"
            for i in range(len(compiled._groups))
            for block in (
                "coefficients", "indices", "exponents",
                "segment_starts", "segment_rows",
            )
        }

    @pytest.mark.parametrize(
        "backend, version", [("real", 2), ("tropical", 3), ("bool", 3)]
    )
    def test_older_store_with_delta_index_opens(
        self, backend, version, provenance, scenarios, tmp_path
    ):
        compiled, path = _store(provenance, tmp_path, backend)
        _append_delta_index(path, compiled, version)
        raw = path.read_bytes()
        (header_len,) = struct.unpack_from("<I", raw, len(MAGIC))
        document = json.loads(raw[len(MAGIC) + 4 : len(MAGIC) + 4 + header_len])
        assert document["version"] == version
        assert "g0.inc.positions" in document["store"]["blocks"]

        mapped = open_store(path, cached=False)
        from repro.batch.planner import ScenarioBatch

        batch = ScenarioBatch(scenarios, compiled.variables)
        plan = batch.delta_plan(Valuation({"x": 2.0, "y": 0.5, "z": 1.5}))
        assert np.array_equal(
            mapped.evaluate_deltas(plan), compiled.evaluate_deltas(plan)
        )

    def test_write_store_rejects_non_compiled(self, tmp_path):
        with pytest.raises(SerializationError, match="no compiled-store form"):
            write_store(object(), tmp_path / "x.cps")


class TestStoreCache:
    def test_cached_open_returns_same_object(self, name, provenance, tmp_path):
        _, path = _store(provenance, tmp_path, name)
        clear_store_cache()
        first = open_store(path)
        assert open_store(path) is first

    def test_uncached_open_is_fresh(self, name, provenance, tmp_path):
        _, path = _store(provenance, tmp_path, name)
        assert open_store(path, cached=False) is not open_store(path, cached=False)

    def test_rewrite_invalidates(self, name, provenance, tmp_path):
        _, path = _store(provenance, tmp_path, name)
        clear_store_cache()
        first = open_store(path)
        bigger = ProvenanceSet()
        for key, polynomial in provenance.items():
            bigger[key] = polynomial
        bigger[("g4",)] = Polynomial.from_terms([(1.0, ["x", "y", "z"])])
        write_store(resolve_backend(name).compile(bigger), path)
        second = open_store(path)
        assert second is not first
        assert second.source_fingerprint != first.source_fingerprint

    def test_clear_store_cache(self, name, provenance, tmp_path):
        _, path = _store(provenance, tmp_path, name)
        first = open_store(path)
        clear_store_cache()
        assert open_store(path) is not first


class TestCompiledSetSurface:
    def test_to_store_from_store(self, name, provenance, tmp_path):
        compiled = resolve_backend(name).compile(provenance)
        path = tmp_path / "c.cps"
        assert compiled.to_store(path) == str(path)
        mapped = type(compiled).from_store(path)
        assert type(mapped) is type(compiled)
        assert mapped.source_fingerprint == compiled.source_fingerprint

    def test_from_store_rejects_other_backend(self, name, provenance, tmp_path):
        other = "bool" if name == "tropical" else "tropical"
        path = tmp_path / "other.cps"
        resolve_backend(other).compile(provenance).to_store(path)
        compiled_class = type(resolve_backend(name).compile(provenance))
        with pytest.raises(SerializationError, match=other):
            compiled_class.from_store(path)

    def test_fresh_compiled_set_has_no_store_path(self, name, provenance):
        assert resolve_backend(name).compile(provenance).store_path is None


class TestEvaluatorStore:
    def test_adopt_store_matches_direct_evaluation(
        self, name, provenance, scenarios, tmp_path
    ):
        _, path = _store(provenance, tmp_path, name)
        evaluator = BatchEvaluator()
        mapped = evaluator.adopt_store(path)
        assert mapped.store_path == str(path)
        for mode in ("dense", "sparse"):
            adopted = evaluator.evaluate(
                provenance, scenarios, semiring=name, mode=mode
            )
            direct = BatchEvaluator().evaluate(
                provenance, scenarios, semiring=name, mode=mode
            )
            np.testing.assert_array_equal(
                adopted.full_results, direct.full_results
            )

    def test_store_backed_sharding_matches_serial(
        self, name, provenance, scenarios, tmp_path
    ):
        _, path = _store(provenance, tmp_path, name)
        serial = BatchEvaluator().evaluate(
            provenance, scenarios, semiring=name, mode="sparse"
        )
        with BatchEvaluator() as evaluator:
            evaluator.adopt_store(path)
            sharded = evaluator.evaluate(
                provenance, scenarios, semiring=name, mode="sparse", processes=2
            )
        np.testing.assert_allclose(sharded.full_results, serial.full_results)

    def test_close_is_idempotent(self, name, provenance, tmp_path):
        _, path = _store(provenance, tmp_path, name)
        evaluator = BatchEvaluator()
        evaluator.adopt_store(path)
        evaluator.close()
        evaluator.close()


class TestSessionStore:
    def test_compile_and_open_round_trip(
        self, name, provenance, scenarios, tmp_path
    ):
        path = tmp_path / "s.cps"
        producer = CobraSession(provenance, semiring=name)
        producer.compile_to_store(path)

        consumer = CobraSession(provenance, semiring=name)
        mapped = consumer.open_from_store(path)
        assert mapped.store_path == str(path)
        direct = producer.evaluate_many(scenarios)
        via_store = consumer.evaluate_many(scenarios)
        np.testing.assert_array_equal(
            via_store.full_results, direct.full_results
        )

    def test_backend_mismatch(self, provenance, tmp_path):
        path = tmp_path / "s.cps"
        CobraSession(provenance).compile_to_store(path)
        session = CobraSession(provenance, semiring="tropical")
        with pytest.raises(SessionStateError, match="backend"):
            session.open_from_store(path)

    def test_fingerprint_mismatch(self, provenance, tmp_path):
        path = tmp_path / "s.cps"
        CobraSession(provenance).compile_to_store(path)
        other = ProvenanceSet()
        other[("h1",)] = Polynomial.from_terms([(1.0, ["x"])])
        with pytest.raises(SessionStateError, match="fingerprint"):
            CobraSession(other).open_from_store(path)

    @pytest.mark.parametrize("mismatch", ["backend", "fingerprint"])
    def test_rejected_store_takes_no_cache_slot(
        self, mismatch, provenance, tmp_path
    ):
        path = tmp_path / "s.cps"
        CobraSession(provenance).compile_to_store(path)
        if mismatch == "backend":
            session = CobraSession(provenance, semiring="tropical")
        else:
            other = ProvenanceSet()
            other[("h1",)] = Polynomial.from_terms([(1.0, ["x"])])
            session = CobraSession(other)
        with pytest.raises(SessionStateError, match=mismatch):
            session.open_from_store(path)
        assert session._evaluator().cache_info()["entries"] == 0

    def test_pre_exact_fingerprint_store_is_told_to_recompile(
        self, provenance, tmp_path
    ):
        path = tmp_path / "s.cps"
        CobraSession(provenance).compile_to_store(path)

        def to_version_4(document):
            document["version"] = 4
            document["store"]["fingerprint"] = "0" * 64

        _rewrite_header(path, to_version_4)
        with pytest.raises(SessionStateError, match="version 4.*recompile"):
            CobraSession(provenance).open_from_store(path)

    def test_entry_points_share_one_compile(
        self, name, provenance, scenarios, tmp_path, monkeypatch
    ):
        session = CobraSession(provenance, semiring=name)
        backend_type = type(session.backend)
        original = backend_type.compile
        compiled = []

        def counting_compile(backend, provenance_set):
            compiled.append(provenance_set)
            return original(backend, provenance_set)

        monkeypatch.setattr(backend_type, "compile", counting_compile)
        session.initial_results()
        session.compile_to_store(tmp_path / "s.cps")
        session.evaluate_many(scenarios)
        assert compiled == [provenance]

    def test_generic_backend_has_no_store(self, provenance, tmp_path):
        session = CobraSession(provenance, semiring="why")
        with pytest.raises(SessionStateError, match="no"):
            session.compile_to_store(tmp_path / "why.cps")


class TestCliStore:
    WORKLOAD = ["--customers", "300", "--zips", "5", "--months", "3"]

    def test_compile_then_batch_store(self, tmp_path, capsys):
        store = tmp_path / "telephony.cps"
        assert main(["compile", *self.WORKLOAD, "--output", str(store)]) == 0
        assert store.exists()
        out = capsys.readouterr().out
        assert "Store written to" in out

        assert (
            main(
                [
                    "batch",
                    *self.WORKLOAD,
                    "--scenarios",
                    "8",
                    "--store",
                    str(store),
                    "--top",
                    "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "mmap-backed" in out

    def test_batch_rejects_mismatched_store(self, tmp_path, capsys):
        store = tmp_path / "telephony.cps"
        assert main(["compile", *self.WORKLOAD, "--output", str(store)]) == 0
        capsys.readouterr()
        args = ["batch", "--customers", "300", "--zips", "6", "--months", "3"]
        assert main([*args, "--store", str(store)]) == 1
        assert "cannot use compiled store" in capsys.readouterr().out

    def test_compile_from_input_json(self, provenance, tmp_path, capsys):
        source = tmp_path / "prov.json"
        save_provenance_set(provenance, source)
        store = tmp_path / "prov.cps"
        assert (
            main(["compile", "--input", str(source), "--output", str(store)]) == 0
        )
        header = read_store_header(store)
        assert header["backend"] == "real"

    def test_compile_tropical_store(self, tmp_path, capsys):
        store = tmp_path / "trop.cps"
        assert (
            main(
                ["compile", *self.WORKLOAD, "--semiring", "tropical",
                 "--output", str(store)]
            )
            == 0
        )
        assert read_store_header(store)["backend"] == "tropical"

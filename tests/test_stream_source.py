"""Unit tests for the block data plane (StreamSource and friends)."""

import numpy as np
import pytest

from repro.common.exceptions import StreamProtocolError
from repro.graph.generators import cycle_graph, gnp_random_graph
from repro.streaming.source import (
    FileSource,
    GeneratorSource,
    MaterializedSource,
    as_edge_blocks,
    iter_edge_blocks,
    read_edge_file_header,
    write_edge_file,
)
from repro.streaming.stream import TokenStream, stream_from_graph
from repro.streaming.tokens import EdgeToken, ListToken, edge_tokens


def collect_edges(source):
    """Flatten one (non-counting) sweep of a source into an (m, 2) array."""
    blocks = [b for b in source.iter_items() if isinstance(b, np.ndarray)]
    if not blocks:
        return np.empty((0, 2), dtype=np.int64)
    return np.concatenate(blocks)


class TestAsEdgeBlocks:
    def test_chunks_an_array(self):
        arr = np.arange(20, dtype=np.int64).reshape(10, 2)
        blocks = list(as_edge_blocks(arr, chunk_size=4))
        assert [len(b) for b in blocks] == [4, 4, 2]
        assert np.array_equal(np.concatenate(blocks), arr)

    def test_chunks_an_iterable(self):
        blocks = list(as_edge_blocks([(0, 1), (1, 2), (2, 3)], chunk_size=2))
        assert [len(b) for b in blocks] == [2, 1]
        assert blocks[0].dtype == np.int64

    def test_rejects_bad_shape(self):
        with pytest.raises(StreamProtocolError):
            list(as_edge_blocks(np.zeros((3, 3), dtype=np.int64)))

    def test_rejects_bad_chunk_size(self):
        with pytest.raises(StreamProtocolError):
            list(as_edge_blocks(np.zeros((2, 2), dtype=np.int64), chunk_size=0))


class TestMaterializedSource:
    def test_blocks_match_tokens(self):
        g = gnp_random_graph(20, 0.4, seed=1)
        stream = stream_from_graph(g)
        source = MaterializedSource(stream, chunk_size=5)
        edges = collect_edges(source)
        assert edges.tolist() == [[t.u, t.v] for t in stream.tokens]

    def test_respects_chunk_size(self):
        stream = TokenStream(edge_tokens([(0, 1)] * 10), n=2)
        source = MaterializedSource(stream, chunk_size=3)
        sizes = [len(b) for b in source.iter_items()]
        assert sizes == [3, 3, 3, 1]

    def test_preserves_list_token_interleaving(self):
        tokens = [
            EdgeToken(0, 1),
            ListToken(0, frozenset({1})),
            EdgeToken(1, 2),
            EdgeToken(0, 2),
        ]
        source = MaterializedSource(TokenStream(tokens, n=3), chunk_size=8)
        items = list(source.iter_items())
        assert isinstance(items[0], np.ndarray) and items[0].tolist() == [[0, 1]]
        assert items[1] == tokens[1]
        assert items[2].tolist() == [[1, 2], [0, 2]]

    def test_stats(self):
        g = cycle_graph(6)
        source = MaterializedSource(stream_from_graph(g))
        assert source.edge_count() == 6
        assert source.max_degree() == 2

    def test_blocks_are_read_only(self):
        # Cached blocks are re-yielded every pass; mutation must fail loudly
        # rather than corrupt later passes.
        source = MaterializedSource(TokenStream(edge_tokens([(0, 1), (1, 2)]), n=3))
        block = next(iter(source.new_pass()))
        with pytest.raises(ValueError):
            block[0, 0] = 99
        assert next(iter(source.iter_items())).tolist() == [[0, 1], [1, 2]]


class TestGeneratorSource:
    def test_regenerates_each_pass(self):
        calls = []

        def factory():
            calls.append(1)
            return [(0, 1), (1, 2), (0, 2)]

        source = GeneratorSource(factory, n=3, chunk_size=2)
        first = [b.tolist() for b in source.new_pass()]
        second = [b.tolist() for b in source.new_pass()]
        assert first == second == [[[0, 1], [1, 2]], [[0, 2]]]
        assert len(calls) == 2
        assert source.passes_used == 2

    def test_accepts_array_factory(self):
        arr = np.array([[0, 1], [2, 3]], dtype=np.int64)
        source = GeneratorSource(lambda: arr, n=4)
        assert collect_edges(source).tolist() == arr.tolist()


class TestFileSource:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "edges.bin"
        edges = [(0, 1), (1, 2), (3, 4), (2, 4)]
        m = write_edge_file(path, 5, edges)
        assert m == 4
        assert read_edge_file_header(path) == (5, 4)
        source = FileSource(path, chunk_size=3)
        assert collect_edges(source).tolist() == [list(e) for e in edges]
        assert source.edge_count() == 4
        assert source.max_degree() == 2

    def test_round_trip_from_array(self, tmp_path):
        path = tmp_path / "edges.bin"
        arr = np.array([[0, 1], [1, 2]], dtype=np.int64)
        write_edge_file(path, 3, arr)
        assert collect_edges(FileSource(path)).tolist() == arr.tolist()

    def test_empty_file(self, tmp_path):
        path = tmp_path / "edges.bin"
        write_edge_file(path, 7, [])
        source = FileSource(path)
        assert source.edge_count() == 0
        assert list(source.new_pass()) == []
        assert source.passes_used == 1

    def test_rejects_out_of_range(self, tmp_path):
        with pytest.raises(StreamProtocolError):
            write_edge_file(tmp_path / "bad.bin", 2, [(0, 5)])

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"not an edge file")
        with pytest.raises(StreamProtocolError):
            read_edge_file_header(path)


class TestFileSourceHardening:
    """Malformed edge files fail cleanly at construction, as ValueError.

    Without the payload validation a damaged file only surfaced as a
    numpy memmap/reshape error deep inside the first pass.
    """

    def write_valid(self, path, n=5, edges=((0, 1), (1, 2), (3, 4))):
        write_edge_file(path, n, list(edges))
        return path

    def test_wrong_magic_is_value_error(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"WRONGMAG" + b"\x00" * 16)
        with pytest.raises(ValueError, match="not a repro edge file"):
            FileSource(path)

    def test_truncated_header_is_value_error(self, tmp_path):
        path = tmp_path / "short.bin"
        path.write_bytes(b"REPROED1" + b"\x00" * 7)  # header needs 16
        with pytest.raises(ValueError, match="truncated header"):
            FileSource(path)

    def test_truncated_payload_is_value_error(self, tmp_path):
        path = self.write_valid(tmp_path / "trunc.bin")
        data = path.read_bytes()
        path.write_bytes(data[:-16])  # drop one whole edge record
        with pytest.raises(ValueError, match="truncated edge file"):
            FileSource(path)

    def test_odd_byte_length_is_value_error(self, tmp_path):
        path = self.write_valid(tmp_path / "odd.bin")
        data = path.read_bytes()
        path.write_bytes(data + b"\x01\x02\x03")  # trailing partial record
        with pytest.raises(ValueError, match="trailing garbage"):
            FileSource(path)

    def test_trailing_whole_records_are_value_error(self, tmp_path):
        # A header declaring fewer edges than the payload holds is how a
        # file overwritten shorter in place looks; the old `payload <
        # expected` check accepted it silently, dropping the stale tail.
        path = self.write_valid(tmp_path / "extra.bin")
        data = path.read_bytes()
        path.write_bytes(data + b"\x00" * 16)  # one extra whole record
        with pytest.raises(ValueError, match="trailing garbage"):
            FileSource(path)

    def test_missing_file_is_value_error(self, tmp_path):
        with pytest.raises(ValueError, match="cannot read edge file"):
            FileSource(tmp_path / "nope.bin")

    def test_errors_are_also_repro_errors(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"WRONGMAG" + b"\x00" * 16)
        with pytest.raises(StreamProtocolError):
            FileSource(path)

    def test_valid_file_still_loads(self, tmp_path):
        path = self.write_valid(tmp_path / "ok.bin")
        assert FileSource(path).edge_count() == 3


class TestWriteEdgeFileAtomicity:
    """A writer dying mid-stream must never leave a parseable file behind.

    The header is written with m=0 and patched after the payload, so
    without the temp-file + rename discipline a crash left a *valid
    empty* edge file — silent data loss rather than a detectable error.
    """

    @staticmethod
    def _dying_edges():
        yield (0, 1)
        yield (1, 2)
        raise RuntimeError("writer killed mid-stream")

    def test_crash_leaves_no_target_file(self, tmp_path):
        path = tmp_path / "torn.bin"
        with pytest.raises(RuntimeError, match="killed"):
            write_edge_file(path, 5, self._dying_edges())
        assert not path.exists()
        with pytest.raises(ValueError, match="cannot read edge file"):
            FileSource(path)

    def test_crash_preserves_previous_contents(self, tmp_path):
        path = tmp_path / "stable.bin"
        write_edge_file(path, 5, [(0, 1), (1, 2), (3, 4)])
        before = path.read_bytes()
        with pytest.raises(RuntimeError, match="killed"):
            write_edge_file(path, 5, self._dying_edges())
        assert path.read_bytes() == before
        assert FileSource(path).edge_count() == 3

    def test_crash_sweeps_up_the_temp_file(self, tmp_path):
        with pytest.raises(RuntimeError, match="killed"):
            write_edge_file(tmp_path / "torn.bin", 5, self._dying_edges())
        assert [p.name for p in tmp_path.iterdir()] == []

    def test_rejected_endpoint_is_also_atomic(self, tmp_path):
        path = tmp_path / "range.bin"
        with pytest.raises(StreamProtocolError, match="out of range"):
            write_edge_file(path, 2, [(0, 1), (0, 7)])
        assert not path.exists()
        assert [p.name for p in tmp_path.iterdir()] == []

    def test_accepts_block_iterables(self, tmp_path):
        blocks = [
            np.array([[0, 1], [1, 2]], dtype=np.int64),
            np.array([[2, 3]], dtype=np.int64),
        ]
        path = tmp_path / "blocks.bin"
        assert write_edge_file(path, 4, iter(blocks)) == 3
        assert np.array_equal(
            collect_edges(FileSource(path)), np.concatenate(blocks)
        )


class TestIterEdgeBlocks:
    def test_array_input(self):
        arr = np.arange(10, dtype=np.int64).reshape(5, 2)
        blocks = list(iter_edge_blocks(arr, chunk_size=2))
        assert [len(b) for b in blocks] == [2, 2, 1]
        assert np.array_equal(np.concatenate(blocks), arr)

    def test_pair_input(self):
        blocks = list(iter_edge_blocks([(0, 1), (1, 2), (2, 3)], chunk_size=2))
        assert [len(b) for b in blocks] == [2, 1]

    def test_block_input_is_rechunked(self):
        big = np.arange(12, dtype=np.int64).reshape(6, 2)
        blocks = list(iter_edge_blocks(iter([big]), chunk_size=4))
        assert [len(b) for b in blocks] == [4, 2]
        assert np.array_equal(np.concatenate(blocks), big)

    def test_empty_input(self):
        assert list(iter_edge_blocks([], chunk_size=4)) == []


class TestTokenStreamBridge:
    def test_cached_stats(self):
        source = TokenStream(edge_tokens([(0, 1), (0, 2), (0, 3)]), n=4).as_source(1)
        assert source.edge_count() == 3
        assert source.max_degree() == 3
        # Cached values survive repeat calls.
        assert source.edge_count() == 3
        assert source.max_degree() == 3

    def test_pass_seconds_recorded(self):
        from repro.baselines.acs22 import TwoPassQuadraticColoring

        source = TokenStream(edge_tokens([(0, 1)]), n=2).as_source(1)
        list(source.new_pass())
        assert source.pass_seconds == []  # a bare pass is not timed
        TwoPassQuadraticColoring(2, 1).run(source)
        assert source.passes_used == 1 + 4
        assert len(source.pass_seconds) == 4  # one entry per driven pass
        assert all(t >= 0 for t in source.pass_seconds)

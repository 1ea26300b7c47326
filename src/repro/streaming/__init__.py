"""Streaming model: tokens, multipass streams, block sources, interfaces.

The paper's two settings are represented directly:

- **Static multipass** (Section 3): a stream fixed in advance; a
  :class:`MultipassStreamingAlgorithm` reads it with ``stream.new_pass()``
  as many times as its pass machine needs, and the stream counts the
  passes.
- **Adversarial single-pass** (Section 4): a :class:`OnePassAlgorithm`
  exposes ``process_block(edges)`` / ``query()``, and the game loop in
  :mod:`repro.adversaries` drives it against an adaptive adversary.

One stream type has passes (see DESIGN.md, "Data plane"): the
array-backed, chunked :class:`StreamSource` (:class:`MaterializedSource`,
:class:`GeneratorSource`, :class:`FileSource`,
:class:`ShardedFileSource`), whose passes yield ``(k, 2)`` numpy edge
blocks.  A :class:`TokenStream` is only the token list; runs read it
through ``as_source(1)``, one edge per block, so pass counting and space
accounting are those of the token-at-a-time model.
Inputs too large for one file live in the sharded ``REPROED2`` container
(see DESIGN.md, "Sharded edge container").
"""

from repro.streaming.model import MultipassStreamingAlgorithm, OnePassAlgorithm
from repro.streaming.sharded import (
    DEFAULT_SHARD_ROWS,
    ShardedFileSource,
    read_shard_manifest,
    verify_shard_checksums,
    write_sharded_edge_file,
)
from repro.streaming.source import (
    DEFAULT_CHUNK_SIZE,
    FileSource,
    GeneratorSource,
    MaterializedSource,
    StreamSource,
    as_edge_blocks,
    iter_edge_blocks,
    read_edge_file_header,
    write_edge_file,
)
from repro.streaming.stream import TokenStream, stream_from_graph, stream_with_lists
from repro.streaming.tokens import EdgeToken, ListToken, edge_tokens

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "DEFAULT_SHARD_ROWS",
    "EdgeToken",
    "FileSource",
    "GeneratorSource",
    "ListToken",
    "MaterializedSource",
    "MultipassStreamingAlgorithm",
    "OnePassAlgorithm",
    "ShardedFileSource",
    "StreamSource",
    "TokenStream",
    "as_edge_blocks",
    "edge_tokens",
    "iter_edge_blocks",
    "read_edge_file_header",
    "read_shard_manifest",
    "stream_from_graph",
    "stream_with_lists",
    "verify_shard_checksums",
    "write_edge_file",
    "write_sharded_edge_file",
]

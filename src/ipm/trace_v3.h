// Binary trace format v3: columnar chunks, per-column compression,
// selective decode.
//
// A v3 file is a chunk container — "IPMIOB3\n" header, tagged chunks,
// footer index of ChunkMeta records, 16-byte trailer ("IPM3IDX\n") —
// whose chunks each store eight per-column streams instead of
// interleaved event records:
//
//   chunk   := 0x01 varint(count) column*8
//   column  := u8 enc varint(enc_len) [varint(raw_len)] payload
//
// Column order is fixed (start, duration, op, rank, file, offset,
// bytes, phase) and matches event order within each stream. The low
// seven bits of `enc` pick the base encoding — raw little-endian f64
// for the two time columns (bit-exact, memcpy-decodable), plain LEB128
// varint for op codes, and wraparound-safe delta+zigzag varint for the
// monotonic-ish integer columns (rank, file, offset, bytes, and
// zigzagged phase). Bit 0x80 flags an optional per-column byte-RLE
// compression pass, applied by the writer only when it shrinks the
// payload; raw_len (the decompressed size) is present exactly when
// that flag is set. Every encoding is exact: decoding a chunk yields
// the original events bit for bit.
//
// The explicit length prefix on every column is what buys selective
// decode: a reader hands decode_chunk_v3 a ColumnMask and unneeded
// columns are skipped in O(1), so a summary scan touching op + bytes +
// duration never parses ranks, files, offsets or phases. Readers pull
// each chunk with one sized read into a buffer they reuse
// (read_chunk_v3), so a scan holds one chunk per reader, never the
// file.
//
// Error contract: truncated or corrupt input — short column
// stream, bad compression header, footer past EOF, wrong trailer —
// always throws std::runtime_error, never crashes or yields a partial
// batch.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "ipm/columns.h"
#include "ipm/sink.h"
#include "ipm/trace_source.h"
#include "ipm/trace_stream.h"

namespace eio::ipm {

/// Streaming v3 writer; usable directly as a capture sink, so the
/// monitor can emit an indexed trace file without ever materializing
/// the event list. Chunks hold exactly chunk_events rows (the last one
/// fewer) whatever the sizes of the batches fed in. Analysis output
/// does not depend on chunk_events while a chunk matches at most the
/// reservoir capacity (65,536 rows) of any one sample; past that, its
/// partials merge by weighted draws.
class TraceWriterV3 final : public EventSink {
 public:
  struct Options {
    /// Events per chunk; the default is the chunk of a TSV or
    /// in-memory source, so every format shares one chunk layout.
    std::size_t chunk_events = TraceSource::kDefaultBatchEvents;
    bool compress = true;  ///< RLE columns when it shrinks the payload
  };

  TraceWriterV3(std::ostream& out, std::string experiment,
                std::uint32_t ranks);
  TraceWriterV3(std::ostream& out, std::string experiment,
                std::uint32_t ranks, Options options);
  ~TraceWriterV3() override;

  TraceWriterV3(const TraceWriterV3&) = delete;
  TraceWriterV3& operator=(const TraceWriterV3&) = delete;

  /// Append one row (for writers fed from in-memory rows).
  void add(const TraceEvent& event);
  /// Append an all-column batch. A run of rows that fills a whole
  /// chunk is encoded straight from the batch, without buffering.
  void add_batch(const ColumnBatch& batch) override;

  /// Flush the trailing chunk and write the footer index + trailer.
  /// Idempotent; called by the destructor if the caller forgot, but
  /// explicit calls are preferred (destructors swallow I/O errors).
  void finish() override;

  [[nodiscard]] std::uint64_t events_written() const noexcept {
    return total_events_;
  }
  [[nodiscard]] std::uint64_t chunks_written() const noexcept {
    return chunks_.size();
  }

 private:
  /// Encode the buffered rows as one chunk.
  void flush_chunk();
  /// Encode `rows` (all columns) as one chunk.
  void write_chunk(const ColumnBatch& rows);
  void write_column(std::uint8_t base_enc);

  std::ostream* out_;
  Options options_;
  ColumnScratch pending_;  ///< rows of the chunk being filled
  std::vector<ChunkMeta> chunks_;
  std::vector<char> col_buf_;  ///< plain column payload being built
  std::vector<char> rle_buf_;  ///< RLE candidate for the same payload
  std::uint64_t total_events_ = 0;
  bool finished_ = false;
};

/// Read the footer index of a v3 trace from a seekable stream.
/// Validates the trailer magic and footer bounds, that the footer ends
/// at the trailer, and that the chunk offsets tile the file from the
/// header to the footer in increasing order — so decoding every chunk
/// (each decode must consume its whole extent) reads every byte, and
/// no proper prefix of a file, however it is cut, reads as complete.
[[nodiscard]] TraceIndex read_index_v3(std::istream& in);

/// Decode one v3 chunk from an in-memory image (a sized read of it).
/// `data` must span exactly the chunk record — tag byte through last
/// column payload (see chunk_byte_length); the
/// decode must consume every byte or it throws. Only the masked
/// columns are materialized (into `scratch`); the rest are skipped via
/// their length prefixes. The returned spans alias `scratch` and stay
/// valid until the next decode into it.
ColumnBatch decode_chunk_v3(const char* data, std::size_t len,
                            const ChunkMeta& chunk, ColumnScratch& scratch,
                            ColumnMask mask = kColAll);

/// The chunk read every v3 reader uses: seek to chunk.offset, pull
/// byte_len bytes into `raw` (reused across calls, so it grows to the
/// largest chunk read), then decode_chunk_v3 from it. A short read —
/// the file ends inside the chunk — throws std::runtime_error.
ColumnBatch read_chunk_v3(std::istream& in, const ChunkMeta& chunk,
                          std::uint64_t byte_len, std::vector<char>& raw,
                          ColumnScratch& scratch, ColumnMask mask = kColAll);

/// The per-column byte-RLE codec (exposed for tests). Control byte
/// c in [0,127]: the next c+1 bytes are literals; c in [128,255]: the
/// next byte repeats c-125 (= 3..130) times. Decompression must yield
/// exactly raw_len bytes and consume all of src, else it throws.
void rle_compress(std::span<const char> src, std::vector<char>& out);
void rle_decompress(std::span<const char> src, std::size_t raw_len,
                    std::vector<char>& out);

}  // namespace eio::ipm

// checkpoint.hpp — crash-safe, resumable campaign progress.
//
// The runner persists every completed cell to a manifest so a killed
// campaign (OOM, preemption, SIGKILL mid-write) resumes where it left
// off and — because finished cells are *replayed from the manifest*,
// not re-run — produces byte-identical final artifacts
// (tests/test_campaign.cpp pins the kill/resume round trip).
//
// Manifest format: a utils/codec.hpp framed file — magic "DPBYZMF2", a
// CRC-32'd record holding the grid signature, then one per completed
// cell holding its csv_cells row joined by commas — written by
// codec::write_framed (tmp file, fsync, rename).  load_manifest drops a
// record the file ends inside (a crashed copy, a filesystem without
// atomic rename) and keeps the complete prefix; a record failing its
// CRC-32 throws, and the runner refuses a manifest of another grid.
#pragma once

#include <map>
#include <string>

#include "campaign/artifact.hpp"

namespace dpbyz::campaign {

/// In-memory manifest: the grid signature it belongs to plus the
/// completed cells keyed by cell index (map order = file row order,
/// which makes saves deterministic for a given completed set).
struct Manifest {
  std::string signature;
  std::map<size_t, CellArtifact> completed;
};

/// Atomically persist `m` to `path` (tmp file, fsync, rename).  Creates
/// parent directories.  Throws std::runtime_error on I/O errors.
void save_manifest(const std::string& path, const Manifest& m);

/// Load `path`, dropping a torn tail.  A missing file yields an empty
/// manifest; a corrupt one throws std::runtime_error naming the file.
Manifest load_manifest(const std::string& path);

}  // namespace dpbyz::campaign

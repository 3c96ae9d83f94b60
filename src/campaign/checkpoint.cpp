#include "campaign/checkpoint.hpp"

#include <filesystem>
#include <stdexcept>

#include "utils/codec.hpp"
#include "utils/strings.hpp"

namespace dpbyz::campaign {

namespace {
constexpr std::string_view kMagic = "DPBYZMF2";
}

void save_manifest(const std::string& path, const Manifest& m) {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path());
  std::vector<std::string> records = {m.signature};
  for (const auto& [index, artifact] : m.completed)
    records.push_back(strings::join(csv_cells(artifact), ","));
  codec::write_framed(path, kMagic, records);
}

Manifest load_manifest(const std::string& path) {
  Manifest m;
  const std::string name = "campaign: manifest '" + path + "'";
  // A torn tail is dropped; the complete prefix is kept.
  const std::optional<codec::Framed> file = codec::read_framed(path, kMagic, name);
  if (!file) return m;  // no manifest yet: fresh campaign
  if (file->records.empty()) throw std::runtime_error(name + " has no signature record");
  m.signature = file->records[0];
  for (size_t i = 1; i < file->records.size(); ++i) {
    CellArtifact a = from_csv_cells(strings::split(file->records[i], ','));
    m.completed[a.cell] = std::move(a);
  }
  return m;
}

}  // namespace dpbyz::campaign

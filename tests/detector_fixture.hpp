// Shared two-member routing view for the detector suites: member 1
// announces and owns 50.0.0.0/16; member 2 announces 60.0.0.0/16 but has
// no valid space, so its traffic classifies spoofed and both members
// grow windows. The compiled plane every StreamingDetector runs on is
// built once per test binary (its 2^24-entry table is the expensive
// part), not once per test.
#pragma once

#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bgp/routing_table.hpp"
#include "classify/classifier.hpp"
#include "classify/flat_classifier.hpp"
#include "net/prefix.hpp"

namespace spoofscope::testing {

struct DetectorFixture {
  DetectorFixture() {
    bgp::RoutingTableBuilder b;
    b.ingest_route(net::pfx("50.0.0.0/16"), bgp::AsPath{1});
    b.ingest_route(net::pfx("60.0.0.0/16"), bgp::AsPath{2});
    table = b.build();
    trie::IntervalSet s;
    s.add(net::pfx("50.0.0.0/16"));
    std::unordered_map<net::Asn, trie::IntervalSet> spaces;
    spaces.emplace(1, std::move(s));
    classifier = std::make_unique<classify::Classifier>(
        table, std::vector<inference::ValidSpace>{
                   inference::ValidSpace(inference::Method::kFullCone,
                                         std::move(spaces))});
    plane = std::make_unique<classify::FlatClassifier>(
        classify::FlatClassifier::compile(*classifier));
  }
  DetectorFixture(const DetectorFixture&) = delete;
  DetectorFixture& operator=(const DetectorFixture&) = delete;

  bgp::RoutingTable table;
  std::unique_ptr<classify::Classifier> classifier;  ///< compile input
  std::unique_ptr<classify::FlatClassifier> plane;
};

inline const DetectorFixture& detector_fixture() {
  static const DetectorFixture fx;
  return fx;
}

}  // namespace spoofscope::testing

// Unit coverage for the wall-clock pump's node ownership rule (DESIGN §16):
// drainer s owns the nodes with n % shards == s.
#include <gtest/gtest.h>

#include "service/pump.hpp"

namespace rda::service {
namespace {

TEST(ShardHash, NodeOwnershipPartitionsNodes) {
  // Drainer s owns the nodes with n % shards == s; with more shards than
  // nodes the extras own nothing — but every node has exactly one owner.
  for (const int shards : {1, 2, 3, 8}) {
    for (int node = 0; node < 4; ++node) {
      const int owner = shard_of_node(node, shards);
      ASSERT_GE(owner, 0);
      ASSERT_LT(owner, shards);
      ASSERT_EQ(owner, node % shards);
    }
  }
}

}  // namespace
}  // namespace rda::service

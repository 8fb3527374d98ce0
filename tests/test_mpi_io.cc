#include "mpiio/mpi_io.h"

#include <gtest/gtest.h>

#include <type_traits>
#include <utility>
#include <vector>

#include "mpiio/stock_dispatch.h"
#include "pfs/file_system.h"
#include "device/ssd_model.h"

namespace s4d::mpiio {
namespace {

class RecordingDispatch final : public IoDispatch {
 public:
  struct Op {
    std::string what;  // "open", "close", "read", "write"
    FileRequest request;
  };

  void Open(const std::string& file) override {
    ops.push_back({"open", FileRequest{file, 0, 0, 0, 0}});
  }
  void Close(const std::string& file) override {
    ops.push_back({"close", FileRequest{file, 0, 0, 0, 0}});
  }
  void Read(const FileRequest& request, IoCompletion done) override {
    ops.push_back({"read", request});
    if (done) done(100);
  }
  void Write(const FileRequest& request, IoCompletion done) override {
    ops.push_back({"write", request});
    if (done) done(200);
  }
  std::vector<ContentEntry> ReadContent(const std::string&, byte_count,
                                        byte_count) override {
    return {};
  }
  std::string Name() const override { return "recording"; }

  std::vector<Op> ops;
};

class MpiIoTest : public ::testing::Test {
 protected:
  sim::Engine engine_;
  RecordingDispatch dispatch_;
  MpiIoLayer layer_{engine_, dispatch_};
};

TEST_F(MpiIoTest, OpenCloseRefCounted) {
  MpiFile a = layer_.Open(0, "shared");
  MpiFile b = layer_.Open(1, "shared");
  EXPECT_TRUE(a.valid());
  EXPECT_TRUE(b.valid());
  layer_.Close(a);
  EXPECT_FALSE(a.valid());
  layer_.Close(b);
  // One dispatch-level open (first opener) and one close (last closer).
  ASSERT_EQ(dispatch_.ops.size(), 2u);
  EXPECT_EQ(dispatch_.ops[0].what, "open");
  EXPECT_EQ(dispatch_.ops[1].what, "close");
}

// A copied handle would close its file twice; copies must not compile.
static_assert(!std::is_copy_constructible_v<MpiFile>);
static_assert(!std::is_copy_assignable_v<MpiFile>);
static_assert(std::is_nothrow_move_constructible_v<MpiFile>);

TEST_F(MpiIoTest, MovedFromHandleIsInvalidAndClosesAsNoOp) {
  MpiFile a = layer_.Open(2, "shared");
  layer_.Seek(a, 64);
  MpiFile b = std::move(a);
  EXPECT_FALSE(a.valid());  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(b.valid());
  EXPECT_EQ(b.name(), "shared");
  EXPECT_EQ(b.rank(), 2);
  EXPECT_EQ(b.position(), 64);
  layer_.Close(a);  // no-op: the file stays open through b
  ASSERT_EQ(dispatch_.ops.size(), 1u);
  MpiFile c;
  c = std::move(b);
  EXPECT_FALSE(b.valid());  // NOLINT(bugprone-use-after-move)
  layer_.Close(b);
  layer_.Close(c);
  ASSERT_EQ(dispatch_.ops.size(), 2u);
  EXPECT_EQ(dispatch_.ops[1].what, "close");
}

TEST_F(MpiIoTest, ClosingAFileThatIsNotOpenDies) {
  MpiFile a = layer_.Open(0, "shared");
  // `other` never opened "shared", so the handle names a file that is not
  // open there, as a second close of one open would.
  MpiIoLayer other(engine_, dispatch_);
  EXPECT_DEATH(other.Close(a),
               "closing shared \\(rank 0\\), which is not open");
  layer_.Close(a);
}

TEST_F(MpiIoTest, ReadAdvancesFilePointer) {
  MpiFile f = layer_.Open(3, "data");
  bool done = false;
  layer_.Read(f, 1000, [&](SimTime) { done = true; });
  EXPECT_TRUE(done);
  EXPECT_EQ(f.position(), 1000);
  layer_.Read(f, 500, nullptr);
  EXPECT_EQ(f.position(), 1500);
  ASSERT_EQ(dispatch_.ops.size(), 3u);  // open + 2 reads
  EXPECT_EQ(dispatch_.ops[1].request.offset, 0);
  EXPECT_EQ(dispatch_.ops[2].request.offset, 1000);
  EXPECT_EQ(dispatch_.ops[2].request.rank, 3);
}

TEST_F(MpiIoTest, SeekSetAndCurrent) {
  MpiFile f = layer_.Open(0, "data");
  layer_.Seek(f, 4096);
  EXPECT_EQ(f.position(), 4096);
  layer_.Seek(f, 1024, Whence::kCurrent);
  EXPECT_EQ(f.position(), 5120);
  layer_.Seek(f, -120, Whence::kCurrent);
  EXPECT_EQ(f.position(), 5000);
  layer_.Write(f, 8, nullptr);
  EXPECT_EQ(dispatch_.ops.back().request.offset, 5000);
}

TEST_F(MpiIoTest, ExplicitOffsetOpsLeavePointerAlone) {
  MpiFile f = layer_.Open(0, "data");
  layer_.Seek(f, 100);
  layer_.ReadAt(f, 7000, 50, nullptr);
  layer_.WriteAt(f, 9000, 50, nullptr);
  EXPECT_EQ(f.position(), 100);
  EXPECT_EQ(dispatch_.ops[1].request.offset, 7000);
  EXPECT_EQ(dispatch_.ops[2].request.offset, 9000);
}

TEST_F(MpiIoTest, ContentTokenForwarded) {
  MpiFile f = layer_.Open(0, "data");
  layer_.WriteAt(f, 0, 10, nullptr, 777);
  EXPECT_EQ(dispatch_.ops.back().request.content_token, 777u);
}

TEST_F(MpiIoTest, RanksKeepIndependentPointers) {
  MpiFile a = layer_.Open(0, "shared");
  MpiFile b = layer_.Open(1, "shared");
  layer_.Write(a, 100, nullptr);
  layer_.Write(b, 200, nullptr);
  EXPECT_EQ(a.position(), 100);
  EXPECT_EQ(b.position(), 200);
}

TEST(MpiIoStock, EndToEndAgainstSimulatedPfs) {
  sim::Engine engine;
  pfs::FsConfig cfg;
  cfg.stripe = pfs::StripeConfig{2, 64 * KiB};
  cfg.link = net::GigabitEthernet();
  pfs::FileSystem fs(engine, cfg, [](int) {
    return std::make_unique<device::SsdModel>(device::OczRevoDriveX2());
  });
  StockDispatch stock(fs);
  MpiIoLayer layer(engine, stock);

  MpiFile f = layer.Open(0, "bigfile");
  SimTime completed = -1;
  layer.Write(f, 128 * KiB, [&](SimTime t) { completed = t; });
  engine.Run();
  EXPECT_GT(completed, 0);
  EXPECT_EQ(fs.stats().requests, 1);
  EXPECT_EQ(fs.stats().bytes, 128 * KiB);
  layer.Close(f);
}

}  // namespace
}  // namespace s4d::mpiio

// Backend-level durability tests for the paged storage engine: clean
// restart, group-commit loss windows, the crash-point sweep (every op
// count x crash mode must recover a consistent prefix), CRC-corruption
// and torn-write rejection, meta ping-pong fallback, history-horizon
// truncation (including a commit whose prepare batch was truncated), and
// in-memory/paged engine invariance.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "crypto/sha256.h"
#include "storage/paged/format.h"
#include "storage/paged/paged_backend.h"
#include "storage/paged/sim_disk.h"
#include "storage/storage_backend.h"

namespace transedge::storage::paged {
namespace {

crypto::Digest RootFor(BatchId id) {
  return crypto::Sha256::Hash("root-" + std::to_string(id));
}

// --- Format pins -------------------------------------------------------------
//
// Fixed headers, fixed bytes: a file written by one build must read back
// in another. The constants were recorded from the hand-written codec
// the generic field lists replaced; reserved bytes are the zeros in
// them.

template <typename T>
std::string EncodedHex(const T& value) {
  Encoder enc;
  codec::Encode(&enc, value);
  return HexEncode(enc.buffer());
}

TEST(FormatPinTest, PageHeaderBytesArePinned) {
  PageHeader h;
  h.page_id = 0x0a0b0c0d;
  h.lsn = 0x0102030405060708;
  h.payload_len = 96;
  h.next_page = 7;
  h.crc = 0xdeadbeef;
  std::string hex = EncodedHex(h);
  EXPECT_EQ(hex.size(), 2 * kPageHeaderSize);
  EXPECT_EQ(hex,
            "54455047010000000d0c0b0a08070605040302016000000007000000efbeadde");
}

TEST(FormatPinTest, MetaSlotBytesArePinned) {
  MetaSlot m;
  m.generation = 5;
  m.page_size = 4096;
  m.num_buckets = 3;
  m.num_pages = 40;
  m.last_applied = 17;
  m.root = RootFor(17);
  m.log_start = 2;
  m.wal_start_offset = 0x1234;
  m.bucket_heads = {2, kNoPage, 9};
  m.crc = 0x01020304;
  EXPECT_EQ(EncodedHex(m),
            "54454d5401000500000000000000001000000300000028000000110000000000"
            "000018c97bfae101cb011281e7384846a0574505a9f986c1825f30a0d9ae9a82"
            "8462020000000000000034120000000000000300000002000000000000000900"
            "000004030201");
}

TEST(FormatPinTest, WalRecordHeaderBytesArePinned) {
  WalRecordHeader h;
  h.type = static_cast<uint8_t>(WalRecordType::kLogEntry);
  h.lsn = 42;
  h.payload_len = 300;
  h.crc = 0xcafef00d;
  std::string hex = EncodedHex(h);
  EXPECT_EQ(hex.size(), 2 * kWalRecordHeaderSize);
  EXPECT_EQ(hex, "5445574c010000002a000000000000002c0100000df0feca");
}

StorageTuning SmallTuning() {
  StorageTuning tuning;
  tuning.page_size = 128;  // Small pages force multi-page bucket chains.
  tuning.num_buckets = 8;
  tuning.wal_group_commit = 1;
  tuning.checkpoint_interval = 4;
  tuning.num_partitions = 1;
  tuning.partition = 0;
  return tuning;
}

Batch MakeBatch(BatchId id, std::vector<WriteOp> writes) {
  Batch batch;
  batch.partition = 0;
  batch.id = id;
  Transaction txn;
  txn.id = MakeTxnId(7, static_cast<uint32_t>(id));
  txn.write_set = std::move(writes);
  txn.participants = {0};
  batch.local.push_back(std::move(txn));
  batch.ro.merkle_root = RootFor(id);
  batch.ro.lce = id;
  return batch;
}

BatchCertificate CertFor(const Batch& batch) {
  BatchCertificate cert;
  cert.partition = batch.partition;
  cert.batch_id = batch.id;
  cert.batch_digest = batch.ComputeDigest();
  cert.merkle_root = batch.ro.merkle_root;
  cert.ro_digest = batch.ro.ComputeDigest();
  return cert;
}

std::map<Key, Value> Contents(const VersionedStore& store) {
  std::map<Key, Value> out;
  store.ForEachLatest(
      [&](const Key& key, const Value& value, BatchId) { out[key] = value; });
  return out;
}

/// Drives a backend through the decide/apply cycle the node performs,
/// mirroring every applied batch into a plain map so any recovered
/// prefix can be checked against the state as of that batch.
class Driver {
 public:
  explicit Driver(const StorageTuning& tuning)
      : tuning_(tuning), backend_(tuning, &disk_) {}

  void Preload(const std::vector<std::pair<Key, Value>>& data) {
    VersionedStore store;
    for (const auto& [key, value] : data) {
      store.Put(key, value, 0);
      preload_state_[key] = value;
    }
    model_ = preload_state_;
    backend_.Preload(store, RootFor(kNoBatch));
  }

  /// Commit records resolve through `resolve`, as the node resolves
  /// them through its prepared batches.
  void DecideAndApply(const Batch& batch, const TxnResolver& resolve = {}) {
    ASSERT_TRUE(backend_.log().Append({batch, CertFor(batch)}).ok());
    backend_.OnDecided();
    const std::vector<WriteOp> writes =
        AppliedWrites(batch, PartitionMap(tuning_.num_partitions),
                      tuning_.partition, resolve);
    for (const WriteOp& w : writes) {
      backend_.store().Put(w.key, w.value, batch.id);
      model_[w.key] = w.value;
    }
    backend_.OnApplied(batch.id, RootFor(batch.id), writes);
    state_at_[batch.id] = model_;
  }

  /// The reference contents as of `id` (kNoBatch = preloaded state).
  const std::map<Key, Value>& StateAt(BatchId id) const {
    if (id == kNoBatch) return preload_state_;
    auto it = state_at_.find(id);
    EXPECT_TRUE(it != state_at_.end()) << "no reference state for " << id;
    return it->second;
  }

  SimDisk& disk() { return disk_; }
  PagedBackend& backend() { return backend_; }
  const StorageTuning& tuning() const { return tuning_; }

 private:
  StorageTuning tuning_;
  SimDisk disk_;
  PagedBackend backend_;
  std::map<Key, Value> preload_state_;
  std::map<Key, Value> model_;
  std::map<BatchId, std::map<Key, Value>> state_at_;
};

std::vector<std::pair<Key, Value>> SeedData() {
  std::vector<std::pair<Key, Value>> data;
  for (int i = 0; i < 6; ++i) {
    data.emplace_back("seed" + std::to_string(i),
                      ToBytes("v0-" + std::to_string(i)));
  }
  return data;
}

void RunBatches(Driver* driver, BatchId first, BatchId last) {
  for (BatchId id = first; id <= last; ++id) {
    driver->DecideAndApply(MakeBatch(
        id, {WriteOp{"seed" + std::to_string(id % 6),
                     ToBytes("b" + std::to_string(id))},
             WriteOp{"key" + std::to_string(id), ToBytes("new")}}));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(PagedBackendTest, CleanRestartRecoversStoreLogAndCheckpoint) {
  Driver driver(SmallTuning());
  driver.Preload(SeedData());
  RunBatches(&driver, 0, 9);

  // group_commit=1 syncs every WAL append and checkpoints sync their own
  // pages, so a clean power loss loses nothing.
  driver.disk().Crash(driver.disk().op_count(), SimDisk::CrashMode::kNone);

  PagedBackend recovered(driver.tuning(), &driver.disk());
  Result<RecoveredState> rec = recovered.Recover({});
  ASSERT_TRUE(rec.ok()) << rec.status();

  // checkpoint_interval=4 over applies 0..9 checkpoints after 3 and 7.
  EXPECT_EQ(rec->checkpoint_applied, 7);
  EXPECT_TRUE(rec->checkpoint_root == RootFor(7));
  EXPECT_EQ(recovered.log().FirstBatchId(), 0);
  EXPECT_EQ(recovered.log().LastBatchId(), 9);
  EXPECT_EQ(Contents(recovered.store()), driver.StateAt(9));

  // The replayed log is the one that was written, entry for entry.
  for (BatchId id = 0; id <= 9; ++id) {
    Result<const LogEntry*> entry = recovered.log().Get(id);
    ASSERT_TRUE(entry.ok());
    EXPECT_TRUE(entry.value()->batch ==
                driver.backend().log().Get(id).value()->batch);
  }

  // Recovery charged its I/O: replayed WAL records and page reads.
  EXPECT_EQ(recovered.io_stats().wal_records_replayed, 10u);
  EXPECT_GT(recovered.io_stats().pages_read, 0u);
}

TEST(PagedBackendTest, GroupCommitCrashLosesOnlyTheUnsyncedTail) {
  StorageTuning tuning = SmallTuning();
  tuning.wal_group_commit = 4;
  tuning.checkpoint_interval = 1000;  // No checkpoint beyond preload.
  Driver driver(tuning);
  driver.Preload(SeedData());
  RunBatches(&driver, 0, 9);

  // Appends 0..9 sync after records 3 and 7; 8 and 9 are cache-only.
  driver.disk().Crash(driver.disk().op_count(), SimDisk::CrashMode::kNone);

  PagedBackend recovered(tuning, &driver.disk());
  Result<RecoveredState> rec = recovered.Recover({});
  ASSERT_TRUE(rec.ok()) << rec.status();
  EXPECT_EQ(rec->checkpoint_applied, kNoBatch);
  EXPECT_TRUE(rec->checkpoint_root == RootFor(kNoBatch));
  EXPECT_EQ(recovered.log().LastBatchId(), 7);
  EXPECT_EQ(Contents(recovered.store()), driver.StateAt(7));
}

TEST(PagedBackendTest, CrashPointSweepAlwaysRecoversAConsistentPrefix) {
  StorageTuning tuning = SmallTuning();
  tuning.wal_group_commit = 2;
  tuning.checkpoint_interval = 3;
  Driver driver(tuning);
  driver.Preload(SeedData());
  RunBatches(&driver, 0, 11);

  const uint64_t ops = driver.disk().op_count();
  ASSERT_GT(ops, 12u);  // WAL appends + checkpoint page/meta writes.
  const SimDisk::CrashMode kModes[] = {SimDisk::CrashMode::kNone,
                                       SimDisk::CrashMode::kPrefix,
                                       SimDisk::CrashMode::kTorn};
  for (uint64_t keep = 0; keep <= ops; ++keep) {
    for (SimDisk::CrashMode mode : kModes) {
      SimDisk crashed = driver.disk().Clone();
      crashed.Crash(keep, mode);
      PagedBackend recovered(tuning, &crashed);
      Result<RecoveredState> rec = recovered.Recover({});
      ASSERT_TRUE(rec.ok())
          << "crash at op " << keep << " mode " << static_cast<int>(mode)
          << ": " << rec.status();
      BatchId w = recovered.log().LastBatchId();
      EXPECT_GE(w, rec->checkpoint_applied);
      EXPECT_LE(w, 11);
      EXPECT_EQ(Contents(recovered.store()), driver.StateAt(w))
          << "crash at op " << keep << " mode " << static_cast<int>(mode)
          << " recovered watermark " << w;
    }
  }

  // Keeping the whole cache is equivalent to a clean shutdown.
  SimDisk intact = driver.disk().Clone();
  intact.Crash(ops, SimDisk::CrashMode::kPrefix);
  PagedBackend full(tuning, &intact);
  ASSERT_TRUE(full.Recover({}).ok());
  EXPECT_EQ(full.log().LastBatchId(), 11);
}

TEST(PagedBackendTest, CorruptedWalTailRecordIsDroppedBenignly) {
  StorageTuning tuning = SmallTuning();
  tuning.checkpoint_interval = 1000;
  Driver driver(tuning);
  driver.Preload(SeedData());
  RunBatches(&driver, 0, 4);
  driver.disk().SyncAll();

  // Flip a byte inside the last record: its CRC fails, the scan ends at
  // the record before it, and recovery serves batches 0..3.
  driver.disk().CorruptByte(kWalFileId,
                            driver.disk().DurableSize(kWalFileId) - 1);
  PagedBackend recovered(tuning, &driver.disk());
  Result<RecoveredState> rec = recovered.Recover({});
  ASSERT_TRUE(rec.ok()) << rec.status();
  EXPECT_EQ(recovered.log().LastBatchId(), 3);
  EXPECT_EQ(Contents(recovered.store()), driver.StateAt(3));
}

TEST(PagedBackendTest, CorruptedWalRecordInTheMiddleIsAHole) {
  StorageTuning tuning = SmallTuning();
  tuning.checkpoint_interval = 1000;
  Driver driver(tuning);
  driver.Preload(SeedData());
  RunBatches(&driver, 0, 4);
  driver.disk().SyncAll();

  // A byte inside record 0's payload, with valid records after it: that
  // is a hole in the middle of the log, not a torn tail — recovery must
  // refuse rather than silently skip decided batches.
  driver.disk().CorruptByte(kWalFileId, kWalRecordHeaderSize + 2);
  PagedBackend recovered(tuning, &driver.disk());
  Result<RecoveredState> rec = recovered.Recover({});
  ASSERT_FALSE(rec.ok());
}

TEST(PagedBackendTest, CorruptedDataPageFailsRecovery) {
  StorageTuning tuning = SmallTuning();
  Driver driver(tuning);
  driver.Preload(SeedData());
  driver.disk().SyncAll();

  // The preload checkpoint references data pages from kFirstDataPage up;
  // flipping a durable byte in one must fail the chain CRC.
  driver.disk().CorruptByte(
      kPagesFileId, static_cast<uint64_t>(kFirstDataPage) * tuning.page_size +
                        kPageHeaderSize + 3);
  PagedBackend recovered(tuning, &driver.disk());
  EXPECT_FALSE(recovered.Recover({}).ok());
}

TEST(PagedBackendTest, MetaPingPongFallsBackToThePreviousCheckpoint) {
  StorageTuning tuning = SmallTuning();
  tuning.checkpoint_interval = 1000;  // Only explicit checkpoints.
  Driver driver(tuning);
  driver.Preload(SeedData());  // Generation 1, slot 1.
  RunBatches(&driver, 0, 5);
  ASSERT_TRUE(driver.backend().Checkpoint().ok());  // Generation 2, slot 0.
  driver.disk().SyncAll();

  // Wreck the newest meta slot (generation 2 lives in page 0). Recovery
  // falls back to generation 1 — the preload checkpoint — and the WAL,
  // which is never physically truncated, replays everything back.
  driver.disk().CorruptByte(kPagesFileId, 8);
  PagedBackend recovered(tuning, &driver.disk());
  Result<RecoveredState> rec = recovered.Recover({});
  ASSERT_TRUE(rec.ok()) << rec.status();
  EXPECT_EQ(rec->checkpoint_applied, kNoBatch);
  EXPECT_EQ(recovered.log().LastBatchId(), 5);
  EXPECT_EQ(Contents(recovered.store()), driver.StateAt(5));
}

TEST(PagedBackendTest, TruncateHistoryBoundsLogAndRecovery) {
  Driver driver(SmallTuning());
  driver.Preload(SeedData());
  RunBatches(&driver, 0, 9);
  driver.backend().TruncateHistory(6);
  ASSERT_TRUE(driver.backend().Checkpoint().ok());
  driver.disk().SyncAll();

  EXPECT_EQ(driver.backend().log().FirstBatchId(), 6);
  EXPECT_FALSE(driver.backend().log().Get(5).ok());

  // The checkpoint published log_start=6 and the matching WAL offset, so
  // a restart recovers exactly the retained suffix.
  PagedBackend recovered(driver.tuning(), &driver.disk());
  Result<RecoveredState> rec = recovered.Recover({});
  ASSERT_TRUE(rec.ok()) << rec.status();
  EXPECT_EQ(recovered.log().FirstBatchId(), 6);
  EXPECT_EQ(recovered.log().LastBatchId(), 9);
  EXPECT_FALSE(recovered.log().Get(5).ok());
  EXPECT_EQ(Contents(recovered.store()), driver.StateAt(9));
}

TEST(PagedBackendTest, CommitOfATruncatedPrepareBatchReachesTheCheckpoint) {
  Driver driver(SmallTuning());
  driver.Preload(SeedData());
  RunBatches(&driver, 0, 1);

  // Batch 2 prepares a distributed transaction...
  Transaction dist;
  dist.id = MakeTxnId(9, 1);
  dist.write_set = {WriteOp{"dist-a", ToBytes("committed")},
                    WriteOp{"dist-b", ToBytes("committed")}};
  dist.participants = {0};
  Batch prepare = MakeBatch(2, {WriteOp{"key2", ToBytes("new")}});
  prepare.prepared.push_back(dist);
  driver.DecideAndApply(prepare);
  RunBatches(&driver, 3, 5);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());

  // ...whose batch leaves the log before the commit record arrives.
  driver.backend().TruncateHistory(4);
  ASSERT_FALSE(driver.backend().log().Get(2).ok());

  // Batch 6 carries only the commit record, so its buckets are dirtied by
  // the committed writes alone.
  Batch commit = MakeBatch(6, {});
  commit.local.clear();
  CommitRecord rec;
  rec.txn_id = dist.id;
  rec.committed = true;
  rec.prepared_in_batch = 2;
  commit.committed.push_back(rec);
  driver.DecideAndApply(commit, [&](TxnId id) {
    return id == dist.id ? &dist : nullptr;
  });
  ASSERT_TRUE(driver.backend().Checkpoint().ok());

  // The checkpoint covers batch 6, so recovery loads its writes from the
  // pages rather than replaying them.
  SimDisk restarted = driver.disk().Clone();
  PagedBackend recovered(driver.tuning(), &restarted);
  Result<RecoveredState> recovered_state = recovered.Recover({});
  ASSERT_TRUE(recovered_state.ok()) << recovered_state.status();
  EXPECT_EQ(recovered_state->checkpoint_applied, 6);
  std::map<Key, Value> contents = Contents(recovered.store());
  EXPECT_EQ(contents["dist-a"], ToBytes("committed"));
  EXPECT_EQ(contents["dist-b"], ToBytes("committed"));
  EXPECT_EQ(contents, driver.StateAt(6));
}

TEST(PagedBackendTest, PagedAndInMemoryEnginesApplyIdentically) {
  Driver driver(SmallTuning());
  driver.Preload(SeedData());

  InMemoryBackend in_memory;
  {
    VersionedStore store;
    for (const auto& [key, value] : SeedData()) store.Put(key, value, 0);
    in_memory.Preload(store, RootFor(kNoBatch));
  }

  for (BatchId id = 0; id <= 9; ++id) {
    Batch batch = MakeBatch(
        id, {WriteOp{"seed" + std::to_string(id % 6),
                     ToBytes("b" + std::to_string(id))},
             WriteOp{"key" + std::to_string(id), ToBytes("new")}});
    driver.DecideAndApply(batch);
    ASSERT_TRUE(in_memory.log().Append({batch, CertFor(batch)}).ok());
    in_memory.OnDecided();
    const std::vector<WriteOp>& writes = batch.local.front().write_set;
    for (const WriteOp& w : writes) {
      in_memory.store().Put(w.key, w.value, batch.id);
    }
    in_memory.OnApplied(batch.id, RootFor(batch.id), writes);
  }

  EXPECT_EQ(Contents(in_memory.store()), Contents(driver.backend().store()));
  EXPECT_EQ(in_memory.log().LastBatchId(),
            driver.backend().log().LastBatchId());
  // The in-memory engine stays off the I/O meter entirely.
  EXPECT_EQ(in_memory.io_stats().wal_appends, 0u);
  EXPECT_EQ(in_memory.io_stats().wal_syncs, 0u);
  EXPECT_GT(driver.backend().io_stats().wal_appends, 0u);
}

}  // namespace
}  // namespace transedge::storage::paged

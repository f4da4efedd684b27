// Cross-process communication-buffer tests: the region layout must be
// fully position independent (offsets only), so a child process mapping
// the same POSIX shm segment at a different virtual address sees a
// coherent communication buffer. This is the real protection-boundary
// configuration of paper Figure 1.
#include <sys/wait.h>
#include <unistd.h>

#include <cstring>

#include <gtest/gtest.h>

#include "src/shm/comm_buffer.h"
#include "src/shm/posix_region.h"

namespace flipc::shm {
namespace {

std::string UniqueName(const char* tag) {
  return std::string("/flipc_test_") + tag + "_" + std::to_string(::getpid());
}

TEST(PosixRegion, CreateOpenLifecycle) {
  const std::string name = UniqueName("lifecycle");
  auto region = PosixShmRegion::Create(name, 8192);
  ASSERT_TRUE(region.ok());
  EXPECT_GE((*region)->size(), 8192u);
  std::memset((*region)->base(), 0xab, 128);

  auto view = PosixShmRegion::Open(name);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(static_cast<unsigned char*>((*view)->base())[100], 0xab);

  // Duplicate creation is refused while the owner lives.
  EXPECT_FALSE(PosixShmRegion::Create(name, 4096).ok());
  region->reset();  // owner unlinks
  EXPECT_FALSE(PosixShmRegion::Open(name).ok());
}

TEST(PosixRegion, ValidatesArguments) {
  EXPECT_FALSE(PosixShmRegion::Create("missing-slash", 4096).ok());
  EXPECT_FALSE(PosixShmRegion::Create("/x", 0).ok());
  EXPECT_FALSE(PosixShmRegion::Open("missing-slash").ok());
}

TEST(PosixCommBuffer, ChildProcessSendsThroughSharedRegion) {
  CommBufferConfig config;
  config.message_size = 128;
  config.buffer_count = 16;
  config.max_endpoints = 4;
  auto layout = CommBufferLayout::For(config);
  ASSERT_TRUE(layout.ok());

  const std::string name = UniqueName("xproc");
  auto region = PosixShmRegion::Create(name, layout->total_size);
  ASSERT_TRUE(region.ok());
  auto comm = CommBuffer::Format((*region)->base(), (*region)->size(), config);
  ASSERT_TRUE(comm.ok());

  // Parent plays "messaging engine": allocate a receive endpoint the child
  // will release a buffer into.
  CommBuffer::EndpointParams params;
  params.type = EndpointType::kSend;
  params.queue_capacity = 8;
  auto endpoint = (*comm)->AllocateEndpoint(params);
  ASSERT_TRUE(endpoint.ok());

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: open the same segment at whatever address mmap picks, attach,
    // allocate a buffer, fill it, and release it on the endpoint.
    auto child_region = PosixShmRegion::Open(name);
    if (!child_region.ok()) {
      ::_exit(10);
    }
    auto child_comm = CommBuffer::Attach((*child_region)->base(), (*child_region)->size());
    if (!child_comm.ok()) {
      ::_exit(11);
    }
    auto buffer = (*child_comm)->AllocateBuffer();
    if (!buffer.ok()) {
      ::_exit(12);
    }
    MsgView view = (*child_comm)->msg(*buffer);
    std::memcpy(view.payload, "cross-process hello", 20);
    view.header->state.Store(waitfree::MsgState::kReady);
    if (!(*child_comm)->queue(*endpoint).Release(*buffer)) {
      ::_exit(13);
    }
    // Announce the send as the library does.
    if (!(*child_comm)->doorbell_ring().Ring(*endpoint)) {
      ::_exit(14);
    }
    ::_exit(0);
  }

  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus));
  ASSERT_EQ(WEXITSTATUS(wstatus), 0);

  // Parent: the doorbell and the release are visible; play the engine
  // role and process it.
  EXPECT_EQ((*comm)->doorbell_ring().Pop(), *endpoint);
  waitfree::BufferQueueView queue = (*comm)->queue(*endpoint);
  const waitfree::BufferIndex buffer = queue.PeekProcess();
  ASSERT_NE(buffer, waitfree::kInvalidBuffer);
  MsgView view = (*comm)->msg(buffer);
  EXPECT_STREQ(reinterpret_cast<const char*>(view.payload), "cross-process hello");
  EXPECT_EQ(view.header->state.Load(), waitfree::MsgState::kReady);
  queue.AdvanceProcess();
  EXPECT_EQ(queue.Acquire(), buffer);

  // The child's allocation is reflected in the shared free list.
  EXPECT_EQ((*comm)->FreeBufferCount(), 15u);
}

TEST(PosixCommBuffer, AttachSeesEndpointsAcrossProcesses) {
  CommBufferConfig config;
  config.message_size = 64;
  config.buffer_count = 8;
  config.max_endpoints = 4;
  auto layout = CommBufferLayout::For(config);
  ASSERT_TRUE(layout.ok());

  const std::string name = UniqueName("endpoints");
  auto region = PosixShmRegion::Create(name, layout->total_size);
  ASSERT_TRUE(region.ok());
  auto comm = CommBuffer::Format((*region)->base(), (*region)->size(), config);
  ASSERT_TRUE(comm.ok());

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    auto child_region = PosixShmRegion::Open(name);
    auto child_comm = CommBuffer::Attach((*child_region)->base(), (*child_region)->size());
    CommBuffer::EndpointParams params;
    params.type = EndpointType::kReceive;
    params.queue_capacity = 4;
    params.qos_class = 3;
    auto endpoint = (*child_comm)->AllocateEndpoint(params);
    ::_exit(endpoint.ok() ? static_cast<int>(*endpoint) : 60);
  }
  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus));
  const std::uint32_t index = static_cast<std::uint32_t>(WEXITSTATUS(wstatus));
  ASSERT_LT(index, 4u);

  const EndpointRecord& record = (*comm)->endpoint(index);
  EXPECT_TRUE(record.IsActive());
  EXPECT_EQ(record.Type(), EndpointType::kReceive);
  EXPECT_EQ(record.qos_class.Read(), 3u);
}

}  // namespace
}  // namespace flipc::shm

// The same shapes made safe: stream I/O before the lanes start, and a
// justified one-time handshake inside the lane. Must produce zero
// findings.

namespace fix::engine {

void run_lanes_clean(std::size_t n) {
  std::cerr << n;
  parallel_chunks(nullptr, n,
                  [](std::size_t, std::size_t begin, std::size_t end) {
                    // ntr-blocking-in-lane(one-time startup handshake)
                    std::this_thread::sleep_for(std::chrono::milliseconds(0));
                    (void)begin;
                    (void)end;
                  });
}

}  // namespace fix::engine

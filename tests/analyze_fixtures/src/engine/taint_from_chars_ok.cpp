// Semantic-negative twin of taint_from_chars_bad.cpp: the same parsed
// count reaches the same sink, but only after a range check. Parsed,
// never compiled.

namespace fix::engine {

struct Buffer {
  void resize(unsigned long n);
};

void checked_count_sink(const char* text, const char* end) {
  unsigned long count = 0;
  const auto [ptr, ec] = std::from_chars(text, end, count);
  if (ptr != end || count > 4096) return;
  Buffer slots;
  slots.resize(count);
}

}  // namespace fix::engine

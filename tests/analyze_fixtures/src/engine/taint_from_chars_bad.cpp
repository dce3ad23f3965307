// Seeded wire-taint violation through an out-parameter: std::from_chars
// returns the number it parses through argument 2, and a count parsed
// from untrusted text sizes an allocation with no range check between.
// Parsed, never compiled.

namespace fix::engine {

struct Buffer {
  void resize(unsigned long n);
};

void parsed_count_sink(const char* text, const char* end) {
  unsigned long count = 0;
  std::from_chars(text, end, count);
  Buffer slots;
  slots.resize(count);
}

}  // namespace fix::engine

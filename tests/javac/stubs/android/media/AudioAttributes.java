package android.media;

public final class AudioAttributes {
    public static class Builder {
        public Builder setUsage(int usage) {
            return this;
        }

        public AudioAttributes build() {
            return new AudioAttributes();
        }
    }
}

package android.app;

public class Notification {
    public static class Builder {
        public Builder setSound(android.net.Uri sound) {
            return this;
        }

        public Builder setSound(android.net.Uri sound, android.media.AudioAttributes attributes) {
            return this;
        }
    }
}
